//! TCP front end: a thread-per-connection accept loop over the std
//! networking stack (no async runtime — connections are bounded and
//! each handler is mostly blocked on the job server anyway).

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adm_core::config::MeshConfig;
use adm_trace::json::{obj, Value};

use crate::request::{canonical_request, RequestError};
use crate::server::{ServeError, Server};
use crate::wire::{
    read_command, read_response, write_busy, write_err, write_mesh, write_ok, write_simple,
    Command, WireResponse,
};

/// Accept-loop tuning.
pub struct NetOptions {
    /// Maximum concurrently served connections; excess connections get
    /// an immediate `BUSY` line and are closed (bounded thread count,
    /// bounded memory — same contract as the admission queue).
    pub max_conns: usize,
    /// Per-connection read timeout: a stalled or half-dead client
    /// cannot pin its handler thread forever.
    pub read_timeout: Option<Duration>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            max_conns: 64,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Runs the accept loop until a client sends `SHUTDOWN`. Returns once
/// every accepted handler has finished. The caller still owns `server`
/// shutdown (and trace export) afterwards.
pub fn serve(listener: TcpListener, server: Arc<Server>, opts: NetOptions) -> io::Result<()> {
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let mut handlers = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if live.load(Ordering::SeqCst) >= opts.max_conns {
            server.tracer().count("serve.conn_rejected", 1);
            let mut w = BufWriter::new(&stream);
            let _ = write_busy(&mut w, opts.max_conns, opts.max_conns);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        server.tracer().count("serve.conns", 1);
        let server = server.clone();
        let stop = stop.clone();
        let live = live.clone();
        let timeout = opts.read_timeout;
        handlers.push(std::thread::spawn(move || {
            let shutdown = handle_conn(&server, &stream, timeout).unwrap_or(false);
            live.fetch_sub(1, Ordering::SeqCst);
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(local);
            }
        }));
        // Opportunistically reap finished handlers so the vec does not
        // grow with total connection count.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

/// Serves one connection. Returns `Ok(true)` if the client requested
/// shutdown.
fn handle_conn(server: &Server, stream: &TcpStream, timeout: Option<Duration>) -> io::Result<bool> {
    stream.set_read_timeout(timeout)?;
    // Request/response protocol: Nagle + delayed ACK would add ~40ms
    // to every cache hit that costs microseconds server-side.
    stream.set_nodelay(true)?;
    let mut r = BufReader::new(stream);
    let mut w = BufWriter::new(stream);
    loop {
        let cmd = match read_command(&mut r) {
            Ok(Some(cmd)) => cmd,
            // Clean EOF: client is done with this connection.
            Ok(None) => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = write_err(&mut w, &e.to_string());
                return Ok(false);
            }
            // Timeout / reset mid-command: drop the connection.
            Err(_) => {
                server.tracer().count("serve.conn_aborted", 1);
                return Ok(false);
            }
        };
        match cmd {
            Command::Mesh { class, payload } => {
                let config = match crate::request::parse_request(&payload) {
                    Ok(c) => c,
                    Err(e) => {
                        // Pre-admission failure: never reached the job
                        // server, so it is a wire error, not a request.
                        server.tracer().count("serve.wire_errors", 1);
                        write_err(&mut w, &e.to_string())?;
                        continue;
                    }
                };
                match server.submit_nowait(&config, class) {
                    Ok(ticket) => match ticket.wait() {
                        Ok(resp) => write_ok(&mut w, &resp.key, &resp.digest, &resp.bytes)?,
                        Err(e) => write_err(&mut w, &e.to_string())?,
                    },
                    Err(ServeError::Busy { depth, cap }) => write_busy(&mut w, depth, cap)?,
                    Err(e) => write_err(&mut w, &e.to_string())?,
                }
            }
            Command::Stats => {
                let json = stats_json(server);
                write_ok(&mut w, "-", "-", json.as_bytes())?;
            }
            Command::Ping => {
                write_ok(&mut w, "-", "-", b"pong")?;
            }
            Command::Shutdown => {
                write_ok(&mut w, "-", "-", b"")?;
                w.flush()?;
                return Ok(true);
            }
        }
    }
}

/// Counters + gauges as one compact JSON object.
pub fn stats_json(server: &Server) -> String {
    let snap = server.tracer().snapshot();
    let counters = snap.counters.iter().map(|(name, v)| (name.as_ref(), *v));
    let stats = obj! {
        "counters": Value::obj(counters),
        "queue_depth": server.queue_depth(),
        "mem_cache_bytes": server.mem_cache_bytes(),
    };
    stats.to_string()
}

/// A blocking protocol client for the replay driver, tests, and CLI.
/// Holds one persistent buffered reader so response framing survives
/// read-ahead.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running `admeshd`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Submits a mesh request and blocks for the response.
    pub fn mesh(&mut self, config: &MeshConfig, class: u8) -> io::Result<WireResponse> {
        let payload = canonical_request(config).map_err(|e: RequestError| {
            io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
        })?;
        self.mesh_raw(class, &payload)
    }

    /// Submits a pre-encoded canonical payload (chaos paths send raw
    /// or deliberately malformed bytes).
    pub fn mesh_raw(&mut self, class: u8, payload: &str) -> io::Result<WireResponse> {
        write_mesh(&mut self.writer, class, payload)?;
        read_response(&mut self.reader)
    }

    /// Fetches the stats JSON.
    pub fn stats(&mut self) -> io::Result<String> {
        write_simple(&mut self.writer, "STATS")?;
        match read_response(&mut self.reader)? {
            WireResponse::Ok { bytes, .. } => Ok(String::from_utf8_lossy(&bytes).into_owned()),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        write_simple(&mut self.writer, "PING")?;
        match read_response(&mut self.reader)? {
            WireResponse::Ok { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> io::Result<()> {
        write_simple(&mut self.writer, "SHUTDOWN")?;
        match read_response(&mut self.reader)? {
            WireResponse::Ok { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: WireResponse) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply {resp:?}"),
    )
}
