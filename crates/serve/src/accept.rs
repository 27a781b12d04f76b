//! The accept loop the gateway and the shard server share: one thread
//! per accepted connection, and a registry of the accepted streams so a
//! stop request can wake threads that are blocked in a read.
//!
//! Connection threads read with no timeout. A read timeout that fires
//! inside a frame loses the bytes already consumed and leaves the stream
//! out of step for good, so the stop flag is not polled from the read
//! loop; instead the loop below shuts the registered sockets down, which
//! turns every blocked read into an end of stream.

use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop looks at the stop flag and reaps finished
/// connections. Not on any request's path.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Accept on `listener` until `stop` is raised, running `serve` on a new
/// thread for every connection. On stop (or a listener error) every
/// connection still open is shut down in both directions and its thread
/// joined before this returns.
pub(crate) fn accept_until_stopped<F>(
    listener: TcpListener,
    stop: &AtomicBool,
    serve: F,
) -> io::Result<()>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let serve = Arc::new(serve);
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let result = loop {
        if stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        // Drop the registry's handle on connections that have ended, so
        // the socket closes once its thread is done with it.
        for (_, thread) in conns.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A connection we cannot register is one we could not
                // wake on stop: refuse it.
                let Ok(registered) = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.try_clone())
                else {
                    continue;
                };
                let serve = Arc::clone(&serve);
                conns.push((registered, std::thread::spawn(move || serve(stream))));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => break Err(e),
        }
    };
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
    result
}
