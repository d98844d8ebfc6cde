//! The TCP daemon: newline-delimited JSON over `std::net::TcpListener`.
//!
//! One connection-handler thread per client; all handlers share one
//! [`AnalysisService`] (and therefore one cache, one coalescer, one stats
//! block). The accept loop blocks in `accept`; whoever stops the daemon (a
//! `shutdown` request, [`ServerHandle::shutdown`] or dropping the handle)
//! sets the shutdown flag and then wakes the loop with one throwaway
//! connection. A `shutdown` request is acknowledged before the loop stops;
//! in-flight connections are joined before [`serve`] returns. Only loopback
//! peers may send `shutdown`: any other peer gets an error reply and the
//! daemon keeps serving, whatever address it is bound to.

use std::io::{sink, BufRead, BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{Request, Response};
use crate::service::AnalysisService;

/// Read timeout on connections: how often an idle handler re-checks the
/// shutdown flag, so joining the daemon never waits on a silent client.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the wake-up connection may take to connect before the stopper
/// gives up on it.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The longest request line, newline included, a connection may send. A
/// longer line is answered with an error and the connection is closed.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A running daemon: its bound address plus the shutdown controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on (with the ephemeral port
    /// resolved — bind to port `0` to let the OS pick one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the daemon thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until something else stops the daemon — a client's `shutdown`
    /// request — and the accept loop has exited (the foreground-daemon
    /// mode of `wt-experiments serve`).
    pub fn join_until_shutdown(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Stops the accept loop and joins the daemon thread, once.
    fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            request_stop(&self.shutdown, self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sets the shutdown flag, then wakes the accept loop blocked on `addr` with
/// one throwaway connection (to loopback when the daemon listens on an
/// unspecified address). The loop sees the flag and drops the connection
/// unserved.
fn request_stop(shutdown: &AtomicBool, addr: SocketAddr) {
    shutdown.store(true, Ordering::SeqCst);
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    // Fails harmlessly when the loop has already exited.
    let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
}

/// Binds `addr` and serves it on a background thread.
///
/// # Errors
///
/// Propagates bind errors (address in use, permission).
pub fn spawn<A: ToSocketAddrs>(
    addr: A,
    service: Arc<AnalysisService>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::spawn(move || serve(listener, service, flag));
    Ok(ServerHandle {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

/// Runs the accept loop until `shutdown` is set (by a `shutdown` request or
/// externally), then joins every connection handler. Whoever sets the flag
/// from outside must then connect once to the listener's address to wake
/// the blocking `accept`, as [`ServerHandle::shutdown`] does.
pub fn serve(listener: TcpListener, service: Arc<AnalysisService>, shutdown: Arc<AtomicBool>) {
    let Ok(addr) = listener.local_addr() else {
        return;
    };
    if listener.set_nonblocking(false).is_err() {
        return;
    }
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, peer)) => {
                let service = Arc::clone(&service);
                let flag = Arc::clone(&shutdown);
                let handler = std::thread::spawn(move || {
                    handle_connection(stream, peer.ip(), &service, &flag, addr)
                });
                let mut guard = handlers.lock().unwrap();
                guard.push(handler);
                // Reap finished handlers so the vector stays small on
                // long-lived daemons.
                guard.retain(|h| !h.is_finished());
            }
            Err(_) => break,
        }
    }
    for handler in handlers.into_inner().unwrap() {
        let _ = handler.join();
    }
}

/// Whether `peer` may stop the daemon with a `shutdown` request: loopback
/// peers only, the IPv4-mapped loopback `::ffff:127.0.0.1` included.
fn may_shut_down(peer: IpAddr) -> bool {
    peer.to_canonical().is_loopback()
}

/// Serves one connection: one JSON request per line, one JSON response per
/// line, until the peer closes, sends a line longer than [`MAX_LINE_BYTES`]
/// or, from a loopback `peer`, requests shutdown. `addr` is the listener's
/// address, which a `shutdown` request connects to to wake the accept loop.
fn handle_connection(
    stream: TcpStream,
    peer: IpAddr,
    service: &AnalysisService,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // The buffered line never grows past the cap: one that fills it
        // without a newline is refused.
        let budget = (MAX_LINE_BYTES - line.len()) as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => return,
            Ok(_) if line.len() == MAX_LINE_BYTES && !line.ends_with('\n') => {
                let refusal =
                    Response::Err(format!("request line longer than {MAX_LINE_BYTES} bytes"));
                let _ = writeln!(writer, "{}", refusal.to_json());
                // Close gracefully: closing with request bytes still unread
                // resets the connection, which can drop the refusal before
                // the peer has read it.
                let _ = writer.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut reader.take(MAX_LINE_BYTES as u64), &mut sink());
                return;
            }
            Ok(_) => {}
            // A read timeout: `read_line` has appended any partial bytes to
            // `line`, so keep accumulating — just re-check the flag first.
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let (response, stop) = match Request::parse_line(trimmed) {
            Ok(Request::Shutdown) if !may_shut_down(peer) => (
                Response::Err(format!(
                    "shutdown is accepted from loopback peers only, not from {peer}"
                )),
                false,
            ),
            Ok(request) => {
                let stop = request == Request::Shutdown;
                (service.handle(&request), stop)
            }
            Err(err) => (Response::Err(format!("bad request: {err}")), false),
        };
        line.clear();
        if writeln!(writer, "{}", response.to_json()).is_err() || writer.flush().is_err() {
            return;
        }
        if stop {
            request_stop(shutdown, addr);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_loopback_peers_may_shut_the_daemon_down() {
        for peer in ["127.0.0.1", "::1", "::ffff:127.0.0.1"] {
            assert!(may_shut_down(peer.parse().unwrap()), "{peer} is loopback");
        }
        for peer in ["10.0.0.7", "::ffff:10.0.0.7"] {
            assert!(!may_shut_down(peer.parse().unwrap()), "{peer} is remote");
        }
    }

    #[test]
    fn remote_shutdown_is_refused_and_the_connection_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let service = AnalysisService::new(arcade_core::ExecOptions::default());
        let shutdown = AtomicBool::new(false);
        let remote: IpAddr = "10.0.0.7".parse().unwrap();
        let mut replies = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| handle_connection(stream, remote, &service, &shutdown, addr));
            let mut writer = client.try_clone().unwrap();
            let mut reader = BufReader::new(client);
            for request in [r#"{"op":"shutdown"}"#, r#"{"op":"ping"}"#] {
                writeln!(writer, "{request}").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                replies.push(reply);
            }
        });
        assert!(
            replies[0].contains("\"ok\":false") && replies[0].contains("loopback"),
            "{}",
            replies[0]
        );
        assert!(replies[1].contains("\"ok\":true"), "{}", replies[1]);
        assert!(!shutdown.load(Ordering::SeqCst));
    }
}
