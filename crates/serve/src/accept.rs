//! The accept loop the gateway, the shard server and the stall relay
//! share: one thread per accepted connection, a registry of the accepted
//! streams so a stop request can wake threads that are blocked in a
//! read, and the [`AcceptStop`] that ends it.
//!
//! The loop blocks in `accept()` and looks at nothing on a clock. A stop
//! raises a flag and then dials the listener once; that connection wakes
//! the blocked `accept()`, the loop sees the flag, drops the connection
//! unserved and exits.
//!
//! Connection threads read with no timeout. A read timeout that fires
//! inside a frame loses the bytes already consumed and leaves the stream
//! out of step for good, so the stop flag is not polled from the read
//! loop; instead the loop below shuts the registered sockets down, which
//! turns every blocked read into an end of stream.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Ends one accept loop: raises its flag, then wakes the loop's blocked
/// `accept()` with a connection of its own, which is dropped unserved.
#[derive(Debug)]
pub struct AcceptStop {
    raised: AtomicBool,
    /// Where the wake dials: the listener's address, with a wildcard
    /// (`0.0.0.0`, `[::]`) replaced by the loopback of its family.
    wake: SocketAddr,
}

impl AcceptStop {
    /// The stop for a loop that accepts on `listener`.
    pub fn new(listener: &TcpListener) -> io::Result<AcceptStop> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(AcceptStop {
            raised: AtomicBool::new(false),
            wake,
        })
    }

    /// Has [`AcceptStop::raise`] been called?
    pub(crate) fn is_raised(&self) -> bool {
        // Acquire pairs with the SeqCst swap in `raise`: whoever sees
        // the flag also sees what the raiser wrote before it.
        self.raised.load(Ordering::Acquire)
    }

    /// Raise the flag and wake the loop. Returns once the wake is queued
    /// on the listener's backlog, not when the loop has ended. Only the
    /// first call dials; a loop that has already ended is not listening,
    /// and the dial is refused at once.
    pub fn raise(&self) {
        if !self.raised.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.wake);
        }
    }
}

/// Accept on `listener` until `stop` is raised, running `serve` on a new
/// thread for every connection. On stop (or a listener error) every
/// connection still open is shut down in both directions and its thread
/// joined before this returns.
pub(crate) fn accept_until_stopped<F>(
    listener: TcpListener,
    stop: &AcceptStop,
    serve: F,
) -> io::Result<()>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let result = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => break Err(e),
        };
        // The wake, or a client that came after the stop: not served.
        if stop.is_raised() {
            break Ok(());
        }
        // Drop the registry's handle on connections that have ended, so
        // the socket closes once its thread is done with it.
        for (_, thread) in conns.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        // A connection we cannot register is one we could not wake on
        // stop: refuse it.
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let serve = Arc::clone(&serve);
        conns.push((registered, std::thread::spawn(move || serve(stream))));
    };
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    #[test]
    fn a_wildcard_listener_is_woken_through_the_loopback_of_its_family() {
        let v4: (IpAddr, IpAddr) = (Ipv4Addr::UNSPECIFIED.into(), Ipv4Addr::LOCALHOST.into());
        let v6: (IpAddr, IpAddr) = (Ipv6Addr::UNSPECIFIED.into(), Ipv6Addr::LOCALHOST.into());
        for (wildcard, loopback) in [v4, v6] {
            // A host without IPv6 cannot bind `[::]`; the v4 case still runs.
            let Ok(listener) = TcpListener::bind((wildcard, 0)) else {
                continue;
            };
            let port = listener.local_addr().unwrap().port();
            let stop = AcceptStop::new(&listener).unwrap();
            assert_eq!(stop.wake, SocketAddr::new(loopback, port));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let stop = AcceptStop::new(&listener).unwrap();
        assert_eq!(stop.wake, listener.local_addr().unwrap());
    }
}
