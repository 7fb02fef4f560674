//! The one TCP server runtime: bind, accept, the socket policy, the
//! handshake deadline, the connection cap, reaping, and shutdown.
//!
//! Both the serve layer and the replication leader run on
//! [`TcpServer`]. It owns the accept loop; each accepted connection
//! gets a thread running the server's per-connection closure, which
//! owns the socket from then on. The runtime keeps a clone of every
//! live socket, so [`TcpServer::shutdown`] can cut every connection
//! loose (any blocked read or write returns) and then join them all.
//!
//! Socket policy ([`configure`]): every accepted socket, and every
//! client socket, has `TCP_NODELAY` set. Frames are written whole and
//! flushed when the outbound queue drains, so Nagle's algorithm could
//! only hold a small frame back until the previous one is acknowledged
//! — behind the peer's delayed ACK, milliseconds per delta.

use crate::lock;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long blocking loops (queue waits, pumps, feed polls) wait before
/// re-checking whether they should stop.
pub const TICK: Duration = Duration::from_millis(50);

/// Applies the socket policy (see the module docs) to `stream`.
pub fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Connects to `addr` with the socket policy applied.
pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    configure(&stream)?;
    Ok(stream)
}

/// How a [`TcpServer`] admits connections.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Thread-name prefix (`<name>-accept`, `<name>-conn`).
    pub name: &'static str,
    /// Read deadline set on every accepted socket, so a peer that
    /// connects and says nothing cannot pin a thread forever. The
    /// per-connection closure clears it (`set_read_timeout(None)`) once
    /// the handshake is done. Zero means no deadline.
    pub handshake_timeout: Duration,
    /// Live connections beyond which an accepted socket is closed at
    /// once; `None` admits every connection.
    pub max_conns: Option<usize>,
}

struct Conn {
    /// A clone of the connection's socket, for shutdown.
    stream: TcpStream,
    thread: JoinHandle<()>,
}

struct State {
    stopping: AtomicBool,
    conns: Mutex<Vec<Conn>>,
}

/// A thread-per-connection TCP server (see the module docs). Dropping
/// it shuts it down.
pub struct TcpServer {
    addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (port 0 lets the OS pick; read it back with
    /// [`TcpServer::local_addr`]) and runs `handler` on its own thread
    /// for every admitted connection.
    pub fn bind<H>(
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
        handler: H,
    ) -> io::Result<TcpServer>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("{}-accept", opts.name))
                .spawn(move || accept_loop(listener, &state, &opts, Arc::new(handler)))?
        };
        Ok(TcpServer {
            addr,
            state,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts down every live connection's socket, and
    /// joins every connection thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.state.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conns: Vec<Conn> = lock(&self.state.conns).drain(..).collect();
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in conns {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<H>(listener: TcpListener, state: &State, opts: &ServerOptions, handler: Arc<H>)
where
    H: Fn(TcpStream) + Send + Sync + 'static,
{
    let deadline = Some(opts.handshake_timeout).filter(|t| !t.is_zero());
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mut conns = lock(&state.conns);
        // Reap finished connections — a long-running server must not
        // accumulate a handle per connection ever served. Finished
        // threads join instantly.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].thread.is_finished() {
                let _ = conns.swap_remove(i).thread.join();
            } else {
                i += 1;
            }
        }
        // At capacity: refuse by closing. Dropping the stream sends
        // RST/FIN; the client sees a dead socket, not a hung one.
        if opts.max_conns.is_some_and(|cap| conns.len() >= cap) {
            continue;
        }
        if configure(&stream).is_err() || stream.set_read_timeout(deadline).is_err() {
            continue;
        }
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let handler = Arc::clone(&handler);
        let spawned = std::thread::Builder::new()
            .name(format!("{}-conn", opts.name))
            .spawn(move || handler(stream));
        if let Ok(thread) = spawned {
            conns.push(Conn {
                stream: registered,
                thread,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn accepted_and_connected_sockets_carry_the_socket_policy() {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let opts = ServerOptions {
            name: "net-test",
            handshake_timeout: Duration::ZERO,
            max_conns: None,
        };
        let server = TcpServer::bind("127.0.0.1:0", opts, move |s| {
            let _ = lock(&tx).send(s.nodelay().unwrap());
        })
        .unwrap();
        let client = connect(server.local_addr()).unwrap();
        assert!(client.nodelay().unwrap());
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }
}
