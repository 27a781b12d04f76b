//! The shard worker of the serving plane: answers batched queries for
//! the source rows it owns and installs versioned table swaps.
//!
//! A shard server is deliberately dumb — it holds its slice of the
//! [`TableSnapshot`] (the rows whose source falls in its contiguous
//! node-id block) stamped with a generation, accepts connections, and
//! answers each incoming [`ShardFrame`] with one [`ShardReply`] in
//! frame order. All policy — routing, batching, caching, failure
//! handling — lives in the gateway; the shard's only contract is "one
//! reply per frame, same connection, FIFO". That keeps a worker
//! restartable by just pointing a new process at the same table file.
//!
//! # Atomic swaps
//!
//! The live tables are `Arc<RwLock<Arc<VersionedTables>>>`, shared by
//! every connection thread. A query batch pins the current `Arc` once
//! (one read-lock acquisition per *batch*, not per query) and answers
//! the whole batch against that pin — so a swap landing mid-batch never
//! mixes generations within a batch, and in-flight batches keep the old
//! tables alive until they finish. A [`ShardFrame::Install`] carries a
//! [`crate::TableDelta`]; under the write lock it is applied
//! copy-on-write onto the live tables ([`VersionedTables::apply`]) and
//! replaces the inner `Arc` only if the incoming generation is strictly
//! newer and the delta is full or based on exactly the live generation.
//! That makes duplicated or reordered installs idempotent and a delta
//! onto the wrong base a no-op, never a table mixing two generations;
//! the ack always reports the post-install generation so the installer
//! can tell "applied" from "already there" or "not applicable".
//!
//! The lock guards nothing but that `Arc` swap, so a thread that
//! panicked holding it left one whole generation behind: a poisoned
//! lock is used as is, and one panicking connection cannot stop the
//! shard answering.

use crate::accept::{accept_until_stopped, AcceptStop};
use crate::proto::{
    QueryBatch, QueryOutcome, QueryReply, QueryRequest, ReplyBatch, ShardFrame, ShardReply,
};
use crate::table::{TableSnapshot, VersionedTables};
use dw_graph::INFINITY;
use dw_transport::wire::{read_frame, write_frame};
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// The shard's live table state: swap by replacing the inner `Arc`.
pub type SharedTables = Arc<RwLock<Arc<VersionedTables>>>;

/// Wrap an initial snapshot (generation 0 unless it came from a `DWD1`
/// file) into the shared, swappable state a shard serves from.
pub fn shared_tables(tables: VersionedTables) -> SharedTables {
    Arc::new(RwLock::new(Arc::new(tables)))
}

/// Answer one query against a (shard-local) snapshot. Returns the reply
/// plus the nanoseconds attributed to the lookup and path-walk phases.
pub fn answer(snap: &TableSnapshot, q: &QueryRequest) -> (QueryReply, u64, u64) {
    let t0 = Instant::now();
    let outcome = 'o: {
        if q.src >= snap.n || q.dst >= snap.n {
            break 'o QueryOutcome::OutOfRange;
        }
        let Some(table) = snap.table_for(q.src) else {
            break 'o QueryOutcome::UnknownSource;
        };
        let dist = table.dist[q.dst as usize];
        if dist == INFINITY {
            break 'o QueryOutcome::Unreachable;
        }
        if !q.want_path {
            break 'o QueryOutcome::Dist { dist };
        }
        let lookup_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        // A finite distance whose parent chain will not walk is a
        // corrupt table; fail the query closed rather than hang or lie.
        let outcome = match table.path_to(q.dst) {
            Some(path) => QueryOutcome::Path { dist, path },
            None => QueryOutcome::Unreachable,
        };
        let walk_ns = t1.elapsed().as_nanos() as u64;
        return (QueryReply { id: q.id, outcome }, lookup_ns, walk_ns);
    };
    (
        QueryReply { id: q.id, outcome },
        t0.elapsed().as_nanos() as u64,
        0,
    )
}

/// Answer a whole batch, preserving query order.
pub fn answer_batch(snap: &TableSnapshot, batch: &QueryBatch) -> ReplyBatch {
    let mut replies = Vec::with_capacity(batch.queries.len());
    let (mut lookup_ns, mut walk_ns) = (0u64, 0u64);
    for q in &batch.queries {
        let (r, l, w) = answer(snap, q);
        replies.push(r);
        lookup_ns += l;
        walk_ns += w;
    }
    ReplyBatch {
        seq: batch.seq,
        replies,
        lookup_ns,
        walk_ns,
    }
}

/// Serve one established connection until the peer closes it, it
/// fails, or [`serve_shard`] shuts it down. Reads block with no timeout:
/// one that fired inside a frame would drop the bytes already consumed
/// and leave the stream out of step.
fn serve_conn(tables: &SharedTables, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut stream = BufReader::new(stream);
    let mut scratch = Vec::new();
    loop {
        match read_frame::<_, ShardFrame>(&mut stream)? {
            None => return Ok(()),
            Some(ShardFrame::Queries(batch)) => {
                // Pin the current generation once for the whole batch:
                // a concurrent install can't mix old and new rows
                // inside one batch, and the pin keeps the old tables
                // alive until the batch is answered.
                let pinned = Arc::clone(&tables.read().unwrap_or_else(PoisonError::into_inner));
                let reply = answer_batch(&pinned.snap, &batch);
                write_frame(stream.get_mut(), &ShardReply::Replies(reply), &mut scratch)?;
            }
            Some(ShardFrame::Install { generation, delta }) => {
                let generation = {
                    let mut live = tables.write().unwrap_or_else(PoisonError::into_inner);
                    if let Some(next) = live.apply(generation, &delta) {
                        *live = Arc::new(next);
                    }
                    live.generation
                };
                write_frame(
                    stream.get_mut(),
                    &ShardReply::Installed { generation },
                    &mut scratch,
                )?;
            }
        }
    }
}

/// Run a shard server on `listener` until `stop` (made for this
/// listener) is raised: accept connections (the gateway usually holds
/// exactly one) and serve each on its own thread. All connections share
/// `tables`, so an install on one connection is visible to every other
/// on their next batch. On stop every open connection is shut down,
/// which wakes its thread out of a blocked read, and joined before this
/// returns.
pub fn serve_shard(
    listener: TcpListener,
    tables: SharedTables,
    stop: &AcceptStop,
) -> io::Result<()> {
    accept_until_stopped(listener, stop, move |stream| {
        // A connection error (gateway went away) only ends this
        // connection; the shard keeps accepting.
        let _ = serve_conn(&tables, stream);
    })
}

/// A shard server running on a background thread, for in-process
/// deployments ([`crate::Deployment`]). Kill it with
/// [`ShardHandle::stop`] — dropping the handle also stops it.
pub struct ShardHandle {
    pub addr: std::net::SocketAddr,
    stop: Arc<AcceptStop>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ShardHandle {
    /// Bind a loopback listener and serve `snap` (as generation 0) on a
    /// new thread.
    pub fn spawn(snap: TableSnapshot) -> io::Result<ShardHandle> {
        ShardHandle::spawn_on(
            TcpListener::bind(("127.0.0.1", 0))?,
            VersionedTables {
                generation: 0,
                snap,
            },
        )
    }

    /// Serve an already-stamped table set on `listener`, on a new thread.
    pub fn spawn_on(listener: TcpListener, tables: VersionedTables) -> io::Result<ShardHandle> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AcceptStop::new(&listener)?);
        let stop2 = Arc::clone(&stop);
        let shared = shared_tables(tables);
        let thread = std::thread::spawn(move || serve_shard(listener, shared, &stop2));
        Ok(ShardHandle {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Stop serving: raise the stop and join the accept loop, which
    /// closes every open connection on its way out. Idempotent.
    pub fn stop(&mut self) {
        self.stop.raise();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{SourceTable, TableDelta};
    use dw_congest::WireCodec;

    fn snap() -> TableSnapshot {
        // 0 -> 1 -> 2 (weights 2, 3); node 3 unreachable.
        TableSnapshot {
            n: 4,
            tables: vec![Arc::new(SourceTable::new(
                0,
                vec![0, 2, 5, INFINITY],
                vec![None, Some(0), Some(1), None],
            ))],
        }
    }

    fn send(
        stream: &mut TcpStream,
        scratch: &mut Vec<u8>,
        frame: &ShardFrame,
    ) -> Option<ShardReply> {
        write_frame(stream, frame, scratch).unwrap();
        read_frame(stream).unwrap()
    }

    #[test]
    fn answer_covers_all_outcomes() {
        let s = snap();
        let q = |src, dst, want_path| QueryRequest {
            id: 1,
            src,
            dst,
            want_path,
        };
        assert_eq!(
            answer(&s, &q(0, 2, false)).0.outcome,
            QueryOutcome::Dist { dist: 5 }
        );
        assert_eq!(
            answer(&s, &q(0, 2, true)).0.outcome,
            QueryOutcome::Path {
                dist: 5,
                path: vec![0, 1, 2]
            }
        );
        assert_eq!(
            answer(&s, &q(0, 3, true)).0.outcome,
            QueryOutcome::Unreachable
        );
        assert_eq!(
            answer(&s, &q(1, 0, false)).0.outcome,
            QueryOutcome::UnknownSource
        );
        assert_eq!(
            answer(&s, &q(0, 9, false)).0.outcome,
            QueryOutcome::OutOfRange
        );
    }

    #[test]
    fn shard_serves_batches_over_tcp() {
        let mut h = ShardHandle::spawn(snap()).unwrap();
        let mut stream = TcpStream::connect(h.addr).unwrap();
        let mut scratch = Vec::new();
        let batch = QueryBatch {
            seq: 1,
            queries: vec![
                QueryRequest {
                    id: 10,
                    src: 0,
                    dst: 1,
                    want_path: false,
                },
                QueryRequest {
                    id: 11,
                    src: 0,
                    dst: 2,
                    want_path: true,
                },
            ],
        };
        let Some(ShardReply::Replies(reply)) =
            send(&mut stream, &mut scratch, &ShardFrame::Queries(batch))
        else {
            panic!("expected a reply batch");
        };
        assert_eq!(reply.seq, 1);
        assert_eq!(reply.replies.len(), 2);
        assert_eq!(reply.replies[0].id, 10);
        assert_eq!(reply.replies[0].outcome, QueryOutcome::Dist { dist: 2 });
        assert_eq!(
            reply.replies[1].outcome,
            QueryOutcome::Path {
                dist: 5,
                path: vec![0, 1, 2]
            }
        );
        h.stop();
    }

    #[test]
    fn install_swaps_tables_and_stale_generations_are_ignored() {
        let mut h = ShardHandle::spawn(snap()).unwrap();
        let mut stream = TcpStream::connect(h.addr).unwrap();
        let mut scratch = Vec::new();
        let probe = ShardFrame::Queries(QueryBatch {
            seq: 1,
            queries: vec![QueryRequest {
                id: 1,
                src: 0,
                dst: 1,
                want_path: false,
            }],
        });

        // New tables where 0 -> 1 now costs 9.
        let new_snap = TableSnapshot {
            n: 4,
            tables: vec![Arc::new(SourceTable::new(
                0,
                vec![0, 9, 12, INFINITY],
                vec![None, Some(0), Some(1), None],
            ))],
        };
        let reply = send(
            &mut stream,
            &mut scratch,
            &ShardFrame::Install {
                generation: 3,
                delta: TableDelta::full(&new_snap),
            },
        );
        assert_eq!(reply, Some(ShardReply::Installed { generation: 3 }));
        let Some(ShardReply::Replies(r)) = send(&mut stream, &mut scratch, &probe) else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 9 });

        // A stale (or duplicated) install, and a newer delta on a base
        // the shard does not hold, are no-ops; the ack reports the
        // generation actually live so the installer can tell.
        for (generation, delta) in [
            (2, TableDelta::full(&snap())),
            (4, TableDelta::between(2, &new_snap, &snap())),
        ] {
            let reply = send(
                &mut stream,
                &mut scratch,
                &ShardFrame::Install { generation, delta },
            );
            assert_eq!(reply, Some(ShardReply::Installed { generation: 3 }));
            let Some(ShardReply::Replies(r)) = send(&mut stream, &mut scratch, &probe) else {
                panic!("expected replies");
            };
            assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 9 });
        }
        // On the live base it lands.
        let delta = TableDelta::between(3, &new_snap, &snap());
        let reply = send(
            &mut stream,
            &mut scratch,
            &ShardFrame::Install {
                generation: 4,
                delta,
            },
        );
        assert_eq!(reply, Some(ShardReply::Installed { generation: 4 }));
        let Some(ShardReply::Replies(r)) = send(&mut stream, &mut scratch, &probe) else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 2 });
        h.stop();
    }

    #[test]
    fn install_on_one_connection_is_visible_on_another() {
        let mut h = ShardHandle::spawn(snap()).unwrap();
        let mut a = TcpStream::connect(h.addr).unwrap();
        let mut b = TcpStream::connect(h.addr).unwrap();
        let mut scratch = Vec::new();
        let new_snap = TableSnapshot {
            n: 4,
            tables: vec![Arc::new(SourceTable::new(
                0,
                vec![0, 7, 10, INFINITY],
                vec![None, Some(0), Some(1), None],
            ))],
        };
        let reply = send(
            &mut a,
            &mut scratch,
            &ShardFrame::Install {
                generation: 1,
                delta: TableDelta::full(&new_snap),
            },
        );
        assert_eq!(reply, Some(ShardReply::Installed { generation: 1 }));
        let Some(ShardReply::Replies(r)) = send(
            &mut b,
            &mut scratch,
            &ShardFrame::Queries(QueryBatch {
                seq: 9,
                queries: vec![QueryRequest {
                    id: 2,
                    src: 0,
                    dst: 1,
                    want_path: false,
                }],
            }),
        ) else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 7 });
        h.stop();
    }

    #[test]
    fn a_thread_that_panicked_holding_the_lock_does_not_stop_the_shard() {
        let tables = shared_tables(VersionedTables {
            generation: 0,
            snap: snap(),
        });
        let held = Arc::clone(&tables);
        let panicked = std::thread::spawn(move || {
            let _live = held.write().unwrap();
            panic!("a connection thread dies holding the write lock");
        })
        .join();
        assert!(panicked.is_err() && tables.is_poisoned());

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AcceptStop::new(&listener).unwrap());
        let server = {
            let (tables, stop) = (Arc::clone(&tables), Arc::clone(&stop));
            std::thread::spawn(move || serve_shard(listener, tables, &stop))
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut scratch = Vec::new();
        let probe = ShardFrame::Queries(QueryBatch {
            seq: 1,
            queries: vec![QueryRequest {
                id: 1,
                src: 0,
                dst: 2,
                want_path: false,
            }],
        });
        let Some(ShardReply::Replies(r)) = send(&mut stream, &mut scratch, &probe) else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 5 });
        // Installs go on too.
        let mut moved = snap();
        Arc::make_mut(&mut moved.tables[0]).dist[2] = 6;
        let install = ShardFrame::Install {
            generation: 1,
            delta: TableDelta::between(0, &snap(), &moved),
        };
        let reply = send(&mut stream, &mut scratch, &install);
        assert_eq!(reply, Some(ShardReply::Installed { generation: 1 }));
        let Some(ShardReply::Replies(r)) = send(&mut stream, &mut scratch, &probe) else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 6 });
        stop.raise();
        drop(stream);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_frame_drops_the_connection_not_the_shard() {
        let mut h = ShardHandle::spawn(snap()).unwrap();
        let mut bad = TcpStream::connect(h.addr).unwrap();
        // A frame whose body the codec rejects.
        let mut junk = Vec::new();
        9u32.encode(&mut junk); // length prefix: 9 bytes
        junk.extend_from_slice(&[0xff; 9]);
        use std::io::Write;
        bad.write_all(&junk).unwrap();
        // The shard must still accept and serve a fresh connection.
        let mut good = TcpStream::connect(h.addr).unwrap();
        let mut scratch = Vec::new();
        let batch = QueryBatch {
            seq: 7,
            queries: vec![QueryRequest {
                id: 1,
                src: 0,
                dst: 1,
                want_path: false,
            }],
        };
        let Some(ShardReply::Replies(reply)) =
            send(&mut good, &mut scratch, &ShardFrame::Queries(batch))
        else {
            panic!("expected replies");
        };
        assert_eq!(reply.replies[0].outcome, QueryOutcome::Dist { dist: 2 });
        h.stop();
    }
}
