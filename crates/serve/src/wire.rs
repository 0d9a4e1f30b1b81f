//! The `ADMSERVE/1` line protocol.
//!
//! Length-prefixed ASCII over any byte stream; the request payload is
//! exactly the canonical request form (so the bytes on the wire are
//! the bytes that get hashed into the cache key — one encoding, one
//! truth). One connection may carry many commands sequentially.
//!
//! Client → server:
//!
//! ```text
//! ADMSERVE/1 MESH <class> <nbytes>\n<nbytes of canonical request>
//! ADMSERVE/1 STATS\n
//! ADMSERVE/1 PING\n
//! ADMSERVE/1 SHUTDOWN\n
//! ```
//!
//! Server → client (one per command):
//!
//! ```text
//! OK <key|-> <digest|-> <nbytes>\n<nbytes of payload>
//! BUSY <depth> <cap>\n
//! ERR <single-line message>\n
//! ```
//!
//! `BUSY` is the backpressure contract: the server sheds load by
//! answering cheaply, never by buffering unboundedly or hanging up
//! silently. Clients retry with their own policy.

use std::io::{self, BufRead, Read, Write};

/// Protocol tag expected at the start of every command line.
pub const PROTO: &str = "ADMSERVE/1";

/// Upper bound on a request payload; a line claiming more is rejected
/// before any allocation (connection memory stays bounded).
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Upper bound a *client* accepts for a response payload.
pub const MAX_RESPONSE_BYTES: usize = 1 << 30;

/// One parsed client command.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// Mesh request: priority class + canonical request text.
    Mesh {
        /// Priority class (0 = most urgent).
        class: u8,
        /// Canonical request payload.
        payload: String,
    },
    /// Counter/queue snapshot as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting and exit the serve loop.
    Shutdown,
}

/// One parsed server response (client side).
#[derive(Debug, PartialEq, Eq)]
pub enum WireResponse {
    /// Payload-bearing success.
    Ok {
        /// Cache key (`-` for non-mesh commands).
        key: String,
        /// Payload sha256 (`-` for non-mesh commands).
        digest: String,
        /// The payload bytes.
        bytes: Vec<u8>,
    },
    /// Queue-full rejection.
    Busy {
        /// Queue depth at rejection.
        depth: usize,
        /// Configured queue bound.
        cap: usize,
    },
    /// Request-level failure.
    Err(String),
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one command. `Ok(None)` = clean EOF before any bytes.
pub fn read_command<R: BufRead>(r: &mut R) -> io::Result<Option<Command>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end_matches('\n');
    let mut toks = line.split(' ');
    if toks.next() != Some(PROTO) {
        return Err(bad(format!("expected `{PROTO} ...`, got {line:?}")));
    }
    match toks.next() {
        Some("MESH") => {
            let class: u8 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("MESH needs a class"))?;
            let nbytes: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("MESH needs a byte count"))?;
            if nbytes > MAX_REQUEST_BYTES {
                return Err(bad(format!("request of {nbytes} bytes exceeds cap")));
            }
            let mut buf = vec![0u8; nbytes];
            r.read_exact(&mut buf)?;
            let payload =
                String::from_utf8(buf).map_err(|_| bad("request payload is not UTF-8"))?;
            Ok(Some(Command::Mesh { class, payload }))
        }
        Some("STATS") => Ok(Some(Command::Stats)),
        Some("PING") => Ok(Some(Command::Ping)),
        Some("SHUTDOWN") => Ok(Some(Command::Shutdown)),
        other => Err(bad(format!("unknown command {other:?}"))),
    }
}

/// Writes a payload-bearing success response.
pub fn write_ok<W: Write>(w: &mut W, key: &str, digest: &str, payload: &[u8]) -> io::Result<()> {
    writeln!(w, "OK {key} {digest} {}", payload.len())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes the queue-full rejection.
pub fn write_busy<W: Write>(w: &mut W, depth: usize, cap: usize) -> io::Result<()> {
    writeln!(w, "BUSY {depth} {cap}")?;
    w.flush()
}

/// Writes a request-level failure (message collapsed to one line).
pub fn write_err<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    let one_line: String = msg
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    writeln!(w, "ERR {one_line}")?;
    w.flush()
}

/// Writes a MESH command (client side).
pub fn write_mesh<W: Write>(w: &mut W, class: u8, payload: &str) -> io::Result<()> {
    writeln!(w, "{PROTO} MESH {class} {}", payload.len())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Writes a payload-less command (client side).
pub fn write_simple<W: Write>(w: &mut W, verb: &str) -> io::Result<()> {
    writeln!(w, "{PROTO} {verb}")?;
    w.flush()
}

/// Reads one server response (client side).
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<WireResponse> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let line = line.trim_end_matches('\n');
    if let Some(rest) = line.strip_prefix("OK ") {
        let toks: Vec<&str> = rest.split(' ').collect();
        if toks.len() != 3 {
            return Err(bad(format!("malformed OK line {line:?}")));
        }
        let nbytes: usize = toks[2].parse().map_err(|_| bad("bad OK byte count"))?;
        if nbytes > MAX_RESPONSE_BYTES {
            return Err(bad("response exceeds client cap"));
        }
        // Reserve, don't zero-fill: the payload overwrites every byte.
        let mut bytes = Vec::with_capacity(nbytes);
        r.take(nbytes as u64).read_to_end(&mut bytes)?;
        if bytes.len() < nbytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response payload cut short",
            ));
        }
        Ok(WireResponse::Ok {
            key: toks[0].to_string(),
            digest: toks[1].to_string(),
            bytes,
        })
    } else if let Some(rest) = line.strip_prefix("BUSY ") {
        let toks: Vec<&str> = rest.split(' ').collect();
        if toks.len() != 2 {
            return Err(bad(format!("malformed BUSY line {line:?}")));
        }
        Ok(WireResponse::Busy {
            depth: toks[0].parse().map_err(|_| bad("bad BUSY depth"))?,
            cap: toks[1].parse().map_err(|_| bad("bad BUSY cap"))?,
        })
    } else if let Some(rest) = line.strip_prefix("ERR ") {
        Ok(WireResponse::Err(rest.to_string()))
    } else {
        Err(bad(format!("unrecognized response line {line:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn command_round_trip() {
        let mut buf = Vec::new();
        write_mesh(&mut buf, 1, "admreq/1\npayload").unwrap();
        write_simple(&mut buf, "STATS").unwrap();
        write_simple(&mut buf, "SHUTDOWN").unwrap();
        let mut r = BufReader::new(buf.as_slice());
        assert_eq!(
            read_command(&mut r).unwrap(),
            Some(Command::Mesh {
                class: 1,
                payload: "admreq/1\npayload".into()
            })
        );
        assert_eq!(read_command(&mut r).unwrap(), Some(Command::Stats));
        assert_eq!(read_command(&mut r).unwrap(), Some(Command::Shutdown));
        assert_eq!(read_command(&mut r).unwrap(), None);
    }

    #[test]
    fn response_round_trip() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "k", "d", b"mesh").unwrap();
        write_busy(&mut buf, 9, 8).unwrap();
        write_err(&mut buf, "multi\nline").unwrap();
        let mut r = BufReader::new(buf.as_slice());
        assert_eq!(
            read_response(&mut r).unwrap(),
            WireResponse::Ok {
                key: "k".into(),
                digest: "d".into(),
                bytes: b"mesh".to_vec()
            }
        );
        assert_eq!(
            read_response(&mut r).unwrap(),
            WireResponse::Busy { depth: 9, cap: 8 }
        );
        assert_eq!(
            read_response(&mut r).unwrap(),
            WireResponse::Err("multi line".into())
        );
    }

    #[test]
    fn truncated_ok_payload_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "k", "d", b"0123456789").unwrap();
        for cut in [buf.len() - 1, buf.len() - 10] {
            let mut r = BufReader::new(&buf[..cut]);
            let err = read_response(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A byte count past the client cap is refused before any read.
        let line = format!("OK k d {}\n", MAX_RESPONSE_BYTES + 1);
        let err = read_response(&mut BufReader::new(line.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_request_is_rejected_before_allocation() {
        let line = format!("{PROTO} MESH 0 {}\n", MAX_REQUEST_BYTES + 1);
        let mut r = BufReader::new(line.as_bytes());
        assert!(read_command(&mut r).is_err());
    }
}
