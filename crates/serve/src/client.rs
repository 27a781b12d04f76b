//! A synchronous gateway client: one connection, one outstanding
//! request at a time.
//!
//! This is the building block `dwapsp query`, `dwapsp apply-updates`
//! and the closed-loop load generator use. Replies are correlated by id
//! (the gateway may complete replies out of submission order for
//! *pipelined* clients; with one outstanding request the loop below is
//! just a safety check).
//!
//! A gateway that stops answering does not hang the caller: every read
//! and write on the connection carries the reply deadline, and a request
//! that outlives it fails with [`io::ErrorKind::TimedOut`]. The deadline
//! may have fired inside a frame, so the connection is closed with it;
//! reconnect to go on.
//!
//! A client pushes table generations as deltas: it remembers the last
//! snapshot it pushed that the gateway took as its generation (by `Arc`,
//! not a copy) and sends the next one as the cells that differ from it
//! ([`TableDelta::between`]). With nothing remembered, or when the
//! gateway answers [`ClientReply::NeedFull`] because it cannot vouch
//! that the fleet holds that base, the generation goes whole
//! ([`TableDelta::full`]).

use crate::gateway::{GatewayConfig, APPLY_TIMEOUT};
use crate::proto::{ApplyReport, ClientReply, ClientRequest, QueryOutcome, QueryRequest};
use crate::table::{TableDelta, TableSnapshot};
use dw_transport::tcp::retry_connect;
use dw_transport::wire::{read_frame, write_frame};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

pub struct ServeClient {
    stream: BufReader<TcpStream>,
    scratch: Vec<u8>,
    next_id: u64,
    /// The last pushed `(generation, snapshot)` the gateway installed at
    /// that generation: the base of the next push.
    pushed: Option<(u64, TableSnapshot)>,
}

impl ServeClient {
    /// Connect to a gateway, retrying until `timeout`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<ServeClient> {
        // The longest a default gateway can take over one request: a
        // batch ahead of it that waits `shard_timeout` on a wedged
        // shard, then an install that waits `APPLY_TIMEOUT` on the acks.
        ServeClient::over(
            retry_connect(addr, timeout)?,
            GatewayConfig::default().shard_timeout + APPLY_TIMEOUT,
        )
    }

    fn over(stream: TcpStream, reply_deadline: Duration) -> io::Result<ServeClient> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(reply_deadline))?;
        stream.set_write_timeout(Some(reply_deadline))?;
        Ok(ServeClient {
            stream: BufReader::new(stream),
            scratch: Vec::new(),
            next_id: 1,
            pushed: None,
        })
    }

    /// Send `req` and read replies until `pick` accepts one.
    fn round_trip<T>(
        &mut self,
        req: &ClientRequest,
        mut pick: impl FnMut(ClientReply) -> Option<T>,
    ) -> io::Result<T> {
        let mut exchange = || {
            write_frame(self.stream.get_mut(), req, &mut self.scratch)?;
            loop {
                match read_frame::<_, ClientReply>(&mut self.stream)? {
                    Some(reply) => {
                        // Anything `pick` refuses is a stray reply.
                        if let Some(picked) = pick(reply) {
                            return Ok(picked);
                        }
                    }
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "gateway closed the connection before replying",
                        ))
                    }
                }
            }
        };
        exchange().map_err(|e| match e.kind() {
            // An expired socket timeout reads as `WouldBlock` on Unix.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                let _ = self.stream.get_ref().shutdown(Shutdown::Both);
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no reply from the gateway within the deadline",
                )
            }
            _ => e,
        })
    }

    /// One blocking query round trip.
    pub fn query(&mut self, src: u32, dst: u32, want_path: bool) -> io::Result<QueryOutcome> {
        let id = self.next_id;
        self.next_id += 1;
        let req = ClientRequest::Query(QueryRequest {
            id,
            src,
            dst,
            want_path,
        });
        self.round_trip(&req, |reply| match reply {
            ClientReply::Query(reply) if reply.id == id => Some(reply.outcome),
            _ => None,
        })
    }

    /// Push a new table generation into the deployment: the gateway
    /// fans the install out to every live shard, swaps atomically, and
    /// reports what happened. What travels is the delta against this
    /// client's previous push, or the whole snapshot when there is none
    /// or the gateway refuses the base (then at the cost of one more
    /// round trip). Blocking — a swap takes as long as the slowest
    /// shard's install.
    pub fn apply_tables(
        &mut self,
        generation: u64,
        snap: &TableSnapshot,
    ) -> io::Result<ApplyReport> {
        let delta = match self.pushed.take() {
            Some((base, old)) => TableDelta::between(base, &old, snap),
            None => TableDelta::full(snap),
        };
        let report = match self.install(generation, delta)? {
            Some(report) => report,
            None => self
                .install(generation, TableDelta::full(snap))?
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "the gateway asked for a full install in reply to one",
                    )
                })?,
        };
        if report.generation == generation && report.shards_installed > 0 {
            self.pushed = Some((generation, snap.clone()));
        }
        Ok(report)
    }

    /// One install round trip: the report, or `None` for `NeedFull`.
    fn install(&mut self, generation: u64, delta: TableDelta) -> io::Result<Option<ApplyReport>> {
        let req = ClientRequest::ApplyTables { generation, delta };
        self.round_trip(&req, |reply| match reply {
            ClientReply::ApplyDone(report) => Some(Some(report)),
            ClientReply::NeedFull => Some(None),
            ClientReply::Query(_) => None,
        })
    }

    /// Distance-only convenience wrapper.
    pub fn dist(&mut self, src: u32, dst: u32) -> io::Result<QueryOutcome> {
        self.query(src, dst, false)
    }

    /// Path convenience wrapper.
    pub fn path(&mut self, src: u32, dst: u32) -> io::Result<QueryOutcome> {
        self.query(src, dst, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_silent_gateway_times_the_request_out() {
        // A "gateway" that accepts and then never answers.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_held, _) = listener.accept().unwrap();
        let mut client = ServeClient::over(stream, Duration::from_millis(100)).unwrap();

        let t0 = Instant::now();
        let err = client.query(0, 1, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(5));
        // The deadline may have cut a frame in two: the connection is
        // closed, so a later call fails instead of reading out of step.
        assert!(client.query(0, 1, false).is_err());
    }
}
