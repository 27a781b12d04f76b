//! A loopback deployment: `P` shard servers and the gateway in one
//! process, serving one table snapshot (DESIGN.md §13).
//!
//! This is the serving plane's one bootstrap. `dwapsp serve` runs it,
//! and every test, smoke binary and bench that needs a live deployment
//! stands it up. It also carries the hooks a serving-plane chaos run
//! scripts its nemeses with (DESIGN.md §15):
//!
//! * [`Deployment::kill`] stops a shard. The gateway sees the
//!   connection close and degrades the shard's block to
//!   `ShardUnavailable`.
//! * [`Deployment::stall`] holds every byte on a shard's link, both
//!   ways, without closing or dropping anything, then heals: a network
//!   partition as TCP experiences it. Only the shards named at spawn sit
//!   behind the relay that does this; the gateway dials the rest
//!   directly.
//! * [`Deployment::restart`] boots a shard again on its old address.
//!   The gateway does not redial a shard it has marked down, so a
//!   restarted shard serves the connections made after it.
//!
//! Dropping a deployment shuts the gateway down first, then stops every
//! shard and relay.

use crate::accept::{accept_until_stopped, AcceptStop};
use crate::client::ServeClient;
use crate::gateway::{Gateway, GatewayConfig, CONNECT_TIMEOUT};
use crate::server::ShardHandle;
use crate::table::{TableSnapshot, VersionedTables};
use dw_graph::NodeId;
use dw_transport::shard::ShardMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `P` shard servers and the gateway in front of them, all on loopback.
pub struct Deployment {
    /// Declared first: fields drop in order, so the gateway is gone
    /// before its shards stop.
    pub gateway: Gateway,
    /// The source-block layout; shard `s` owns `map.nodes(s)`.
    pub map: ShardMap,
    pub(crate) shards: Vec<ShardHandle>,
    relays: Vec<Option<Relay>>,
}

impl Deployment {
    /// `shards` shard servers and a gateway on a fresh loopback port,
    /// serving `snap` at `cfg.initial_generation`.
    pub fn spawn(
        snap: &TableSnapshot,
        shards: usize,
        cfg: GatewayConfig,
    ) -> io::Result<Deployment> {
        Deployment::spawn_on(loopback()?, snap, shards, cfg, &[])
    }

    /// As [`Deployment::spawn`], with the gateway on `listener` and each
    /// shard in `stallable` behind the relay [`Deployment::stall`] holds.
    pub fn spawn_on(
        listener: TcpListener,
        snap: &TableSnapshot,
        shards: usize,
        cfg: GatewayConfig,
        stallable: &[usize],
    ) -> io::Result<Deployment> {
        let map = ShardMap::new(snap.n as usize, shards);
        let mut handles = Vec::with_capacity(map.shards());
        let mut relays = Vec::with_capacity(map.shards());
        let mut addrs = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let shard = ShardHandle::spawn_on(
                loopback()?,
                VersionedTables {
                    generation: cfg.initial_generation,
                    snap: snap.for_shard(&map, s as NodeId),
                },
            )?;
            let relay = if stallable.contains(&s) {
                Some(Relay::spawn(shard.addr)?)
            } else {
                None
            };
            addrs.push(relay.as_ref().map_or(shard.addr, |r| r.addr));
            handles.push(shard);
            relays.push(relay);
        }
        let gateway = Gateway::spawn_on(listener, map.clone(), &addrs, cfg)?;
        Ok(Deployment {
            gateway,
            map,
            shards: handles,
            relays,
        })
    }

    /// A client connected to the gateway.
    pub fn client(&self) -> io::Result<ServeClient> {
        ServeClient::connect(self.gateway.addr, CONNECT_TIMEOUT)
    }

    /// Where shard `s` itself listens (not its relay).
    pub fn shard_addr(&self, s: usize) -> SocketAddr {
        self.shards[s].addr
    }

    /// Stop shard `s`, closing every connection it holds. Idempotent.
    pub fn kill(&mut self, s: usize) {
        self.shards[s].stop();
    }

    /// Stop shard `s` if it runs, then boot it again on the same address
    /// with its block of `tables`, as a process restarted from a table
    /// file would.
    pub fn restart(&mut self, s: usize, tables: &VersionedTables) -> io::Result<()> {
        let addr = self.shards[s].addr;
        self.shards[s].stop();
        self.shards[s] = ShardHandle::spawn_on(
            TcpListener::bind(addr)?,
            VersionedTables {
                generation: tables.generation,
                snap: tables.snap.for_shard(&self.map, s as NodeId),
            },
        )?;
        Ok(())
    }

    /// Hold every byte on shard `s`'s link for `span`, then heal.
    /// Returns at once; the handle yields the instant the link healed,
    /// before which no held byte moved on.
    /// Fails if `s` was not named stallable at spawn.
    pub fn stall(&self, s: usize, span: Duration) -> io::Result<JoinHandle<Instant>> {
        let relay = self.relays.get(s).and_then(Option::as_ref).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {s} was not spawned stallable"),
            )
        })?;
        let gate = Arc::clone(&relay.gate);
        gate.set_closed(true);
        Ok(std::thread::spawn(move || {
            std::thread::sleep(span);
            gate.set_closed(false)
        }))
    }
}

fn loopback() -> io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

/// Whether a relay's pumps pass bytes on: closed while a stall holds
/// the link.
#[derive(Default)]
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    /// The flag guards nothing but itself, so a poisoned lock is used
    /// as is.
    fn lock(&self) -> MutexGuard<'_, bool> {
        self.closed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Close or open the gate. Returns the instant it was set, taken
    /// under the lock: a pump held at the gate moves no byte before it.
    fn set_closed(&self, closed: bool) -> Instant {
        let mut gate = self.lock();
        let at = Instant::now();
        *gate = closed;
        if !closed {
            self.opened.notify_all();
        }
        at
    }

    /// Block while the gate is closed.
    fn pass(&self) {
        let mut closed = self.lock();
        while *closed {
            closed = self
                .opened
                .wait(closed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A byte relay in front of one shard whose pumps hold what they read
/// while its gate is closed.
struct Relay {
    addr: SocketAddr,
    gate: Arc<Gate>,
    stop: Arc<AcceptStop>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Relay {
    fn spawn(target: SocketAddr) -> io::Result<Relay> {
        let listener = loopback()?;
        let addr = listener.local_addr()?;
        let gate = Arc::new(Gate::default());
        let stop = Arc::new(AcceptStop::new(&listener)?);
        let thread = {
            let (gate, stop) = (Arc::clone(&gate), Arc::clone(&stop));
            std::thread::spawn(move || {
                accept_until_stopped(listener, &stop, move |client| {
                    relay(client, target, &gate);
                })
            })
        };
        Ok(Relay {
            addr,
            gate,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Relay {
    /// Open the gate first, so no pump stays held, then stop.
    fn drop(&mut self) {
        self.gate.set_closed(false);
        self.stop.raise();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Connect `client` to `target` and pump both ways until either side
/// closes.
fn relay(client: TcpStream, target: SocketAddr, gate: &Arc<Gate>) {
    let Ok(upstream) = TcpStream::connect(target) else {
        return;
    };
    let (Ok(client2), Ok(upstream2)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let back = {
        let gate = Arc::clone(gate);
        std::thread::spawn(move || pump(upstream2, client2, &gate))
    };
    pump(client, upstream, gate);
    let _ = back.join();
}

/// Copy `from` to `to`, holding each chunk at the gate. When either end
/// closes, shut both down so the pump the other way ends too.
fn pump(mut from: TcpStream, mut to: TcpStream, gate: &Gate) {
    let _ = to.set_nodelay(true);
    let mut buf = [0u8; 8192];
    while let Ok(k @ 1..) = from.read(&mut buf) {
        gate.pass();
        if to.write_all(&buf[..k]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{QueryBatch, QueryOutcome, QueryRequest, ShardFrame, ShardReply};
    use crate::table::SourceTable;
    use dw_transport::wire::{read_frame, write_frame};

    /// One row over a path `0 → 1 → … → n-1`, every edge `w`.
    fn path(n: u32, w: u64) -> TableSnapshot {
        TableSnapshot {
            n,
            tables: vec![Arc::new(SourceTable::new(
                0,
                (0..n as u64).map(|v| v * w).collect(),
                (0..n).map(|v| v.checked_sub(1)).collect(),
            ))],
        }
    }

    #[test]
    fn a_stalled_link_holds_the_answer_until_it_heals() {
        let cfg = GatewayConfig {
            cache_capacity: 0,
            ..GatewayConfig::default()
        };
        let d = Deployment::spawn_on(loopback().unwrap(), &path(8, 1), 1, cfg, &[0]).unwrap();
        let mut client = d.client().unwrap();
        assert_eq!(client.dist(0, 3).unwrap(), QueryOutcome::Dist { dist: 3 });

        let healing = d.stall(0, Duration::from_millis(150)).unwrap();
        let got = client.dist(0, 5).unwrap();
        let answered = Instant::now();
        let healed = healing.join().unwrap();
        // Held, not dropped: the answer comes, and only after the heal.
        assert_eq!(got, QueryOutcome::Dist { dist: 5 });
        assert!(answered >= healed);
        assert_eq!(d.gateway.stats().shard_unavailable, 0);

        let unrelayed = Deployment::spawn(&path(8, 1), 1, GatewayConfig::default()).unwrap();
        let refused = unrelayed.stall(0, Duration::ZERO).map(|_| ());
        assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_restarted_shard_serves_its_new_boot_tables_on_its_old_address() {
        let mut d = Deployment::spawn(&path(8, 1), 2, GatewayConfig::default()).unwrap();
        let addr = d.shard_addr(0);
        d.kill(0);
        let boot = VersionedTables {
            generation: 3,
            snap: path(8, 2),
        };
        d.restart(0, &boot).unwrap();
        assert_eq!(d.shard_addr(0), addr);

        let mut conn = TcpStream::connect(addr).unwrap();
        let ask = ShardFrame::Queries(QueryBatch {
            seq: 1,
            queries: vec![QueryRequest {
                id: 1,
                src: 0,
                dst: 3,
                want_path: false,
            }],
        });
        write_frame(&mut conn, &ask, &mut Vec::new()).unwrap();
        let Some(ShardReply::Replies(r)) = read_frame(&mut conn).unwrap() else {
            panic!("expected replies");
        };
        assert_eq!(r.replies[0].outcome, QueryOutcome::Dist { dist: 6 });
    }
}
