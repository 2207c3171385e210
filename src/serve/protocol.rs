//! Wire protocol for `advsgm serve`: length-prefixed binary frames over
//! TCP.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! little-endian payload length followed by that many payload bytes.
//! Frames are capped at [`MAX_FRAME`] so a hostile length can never force
//! a large allocation; multi-byte integers are little-endian and floats
//! travel as raw IEEE-754 bits, matching the `.aemb` conventions
//! (`docs/FORMAT.md`).
//!
//! Request payloads start with an opcode byte; response payloads start
//! with a status byte (`0` ok, `1` error, error body = UTF-8 message).
//! The full layout is specified in DESIGN.md §12. The protocol is
//! deliberately connection-oriented and stateless per request: any
//! request can follow any other on the same connection, and a malformed
//! *payload* gets an error response while the connection stays open
//! (only an unreadable frame header tears it down, because the stream
//! can no longer be trusted).

use std::io::{Read, Write};

use advsgm_store::Neighbor;

/// Hard cap on a frame's payload length, requests and responses alike.
///
/// Bounds allocation against hostile lengths and, together with
/// [`MAX_K`], guarantees every legal response fits in one frame.
pub const MAX_FRAME: usize = 64 * 1024;

/// Largest `k` a top-k request may ask for: `MAX_K` neighbor records
/// (24 bytes each) plus headers stay under [`MAX_FRAME`].
pub const MAX_K: usize = 2048;

/// Request opcode: liveness probe, empty body.
pub const OP_PING: u8 = 0x01;
/// Request opcode: top-k neighbor query.
pub const OP_TOP_K: u8 = 0x02;
/// Request opcode: Eq.-2 pair score.
pub const OP_SCORE: u8 = 0x03;
/// Request opcode: orderly server shutdown, empty body.
pub const OP_SHUTDOWN: u8 = 0x04;

/// Response status byte: success.
pub const STATUS_OK: u8 = 0x00;
/// Response status byte: failure; body is a UTF-8 message.
pub const STATUS_ERR: u8 = 0x01;

/// A parsed client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Liveness probe; the server answers with an empty ok.
    Ping,
    /// Top-k neighbors of `node` (self excluded).
    TopK {
        /// Query row.
        node: u64,
        /// Number of neighbors requested (at most [`MAX_K`]).
        k: u32,
        /// `false` = the exact top-k (bitwise the full scan's), `true` =
        /// ANN index at `recall_target`.
        approx: bool,
        /// Recall target for approximate mode (ignored when exact).
        recall_target: f64,
    },
    /// Eq.-2 inner-product score between two rows.
    Score {
        /// First row.
        u: u64,
        /// Second row.
        v: u64,
    },
    /// Ask the server to stop accepting work and exit its serve loop.
    Shutdown,
}

/// A server response, as seen by the client-side decoder.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Empty success (ping, shutdown).
    Ok,
    /// Top-k result rows.
    Neighbors(Vec<Neighbor>),
    /// A pair score.
    Score(f64),
    /// The request failed; the message says why.
    Error(String),
}

impl Request {
    /// Serialises the request payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            Request::Ping => vec![OP_PING],
            Request::TopK {
                node,
                k,
                approx,
                recall_target,
            } => {
                let mut out = Vec::with_capacity(22);
                out.push(OP_TOP_K);
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.push(u8::from(approx));
                out.extend_from_slice(&recall_target.to_le_bytes());
                out
            }
            Request::Score { u, v } => {
                let mut out = Vec::with_capacity(17);
                out.push(OP_SCORE);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out
            }
            Request::Shutdown => vec![OP_SHUTDOWN],
        }
    }

    /// Parses a request payload. A `Err(reason)` is a *payload* problem —
    /// the server answers it with [`Response::Error`] and keeps the
    /// connection; framing itself was already validated by the caller.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (&op, body) = payload
            .split_first()
            .ok_or_else(|| "empty request payload".to_string())?;
        match op {
            OP_PING if body.is_empty() => Ok(Request::Ping),
            OP_PING => Err(format!("ping carries no body, got {} bytes", body.len())),
            OP_TOP_K => {
                if body.len() != 21 {
                    return Err(format!("top-k body must be 21 bytes, got {}", body.len()));
                }
                let node = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                let k = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
                let approx = match body[12] {
                    0 => false,
                    1 => true,
                    other => return Err(format!("unknown top-k mode byte {other:#04x}")),
                };
                let recall_target = f64::from_le_bytes(body[13..21].try_into().expect("8 bytes"));
                if k as usize > MAX_K {
                    return Err(format!("k={k} exceeds the protocol maximum of {MAX_K}"));
                }
                if approx && !(0.0..=1.0).contains(&recall_target) {
                    return Err(format!("recall target {recall_target} outside [0, 1]"));
                }
                Ok(Request::TopK {
                    node,
                    k,
                    approx,
                    recall_target,
                })
            }
            OP_SCORE => {
                if body.len() != 16 {
                    return Err(format!("score body must be 16 bytes, got {}", body.len()));
                }
                Ok(Request::Score {
                    u: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
                    v: u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")),
                })
            }
            OP_SHUTDOWN if body.is_empty() => Ok(Request::Shutdown),
            OP_SHUTDOWN => Err(format!(
                "shutdown carries no body, got {} bytes",
                body.len()
            )),
            other => Err(format!("unknown opcode {other:#04x}")),
        }
    }
}

impl Response {
    /// Serialises the response payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok => vec![STATUS_OK],
            Response::Neighbors(neighbors) => {
                let mut out = Vec::with_capacity(5 + 24 * neighbors.len());
                out.push(STATUS_OK);
                out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
                for n in neighbors {
                    out.extend_from_slice(&(n.node as u64).to_le_bytes());
                    out.extend_from_slice(&n.id.to_le_bytes());
                    out.extend_from_slice(&n.score.to_le_bytes());
                }
                out
            }
            Response::Score(s) => {
                let mut out = Vec::with_capacity(9);
                out.push(STATUS_OK);
                out.extend_from_slice(&s.to_le_bytes());
                out
            }
            Response::Error(msg) => {
                let msg = msg.as_bytes();
                let take = msg.len().min(MAX_FRAME - 1);
                let mut out = Vec::with_capacity(1 + take);
                out.push(STATUS_ERR);
                out.extend_from_slice(&msg[..take]);
                out
            }
        }
    }

    /// Parses a response payload for a request of the given opcode (the
    /// client knows which request it sent; the wire does not repeat it).
    pub fn decode(request_op: u8, payload: &[u8]) -> Result<Self, String> {
        let (&status, body) = payload
            .split_first()
            .ok_or_else(|| "empty response payload".to_string())?;
        match status {
            STATUS_ERR => Ok(Response::Error(String::from_utf8_lossy(body).into_owned())),
            STATUS_OK => match request_op {
                OP_PING | OP_SHUTDOWN => Ok(Response::Ok),
                OP_SCORE => {
                    if body.len() != 8 {
                        return Err(format!(
                            "score response must be 8 bytes, got {}",
                            body.len()
                        ));
                    }
                    Ok(Response::Score(f64::from_le_bytes(
                        body.try_into().expect("8 bytes"),
                    )))
                }
                OP_TOP_K => {
                    if body.len() < 4 {
                        return Err("top-k response shorter than its count".into());
                    }
                    let count =
                        u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
                    let records = &body[4..];
                    if records.len() != 24 * count {
                        return Err(format!(
                            "top-k response declares {count} records but carries {} bytes",
                            records.len()
                        ));
                    }
                    let mut neighbors = Vec::with_capacity(count);
                    for chunk in records.chunks_exact(24) {
                        neighbors.push(Neighbor {
                            node: u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes"))
                                as usize,
                            id: u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes")),
                            score: f64::from_le_bytes(chunk[16..24].try_into().expect("8 bytes")),
                        });
                    }
                    Ok(Response::Neighbors(neighbors))
                }
                other => Err(format!("cannot decode a response to opcode {other:#04x}")),
            },
            other => Err(format!("unknown response status {other:#04x}")),
        }
    }
}

/// Writes one frame (header + payload) to `w` in a single `write_all`.
///
/// Server and client sockets run with `TCP_NODELAY`, so two writes could
/// leave as two segments and wake the reader once for the header and
/// again for the payload; one buffer sends the frame whole.
///
/// # Errors
/// I/O failures; payloads over [`MAX_FRAME`] are an
/// [`std::io::ErrorKind::InvalidInput`] error before anything is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(payload)?)?;
    w.flush()
}

/// One frame, header and payload, in one buffer.
///
/// # Errors
/// Payloads over [`MAX_FRAME`] are an
/// [`std::io::ErrorKind::InvalidInput`] error.
pub(crate) fn frame(payload: &[u8]) -> std::io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds {MAX_FRAME}", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Reads one frame's payload from `r`, enforcing [`MAX_FRAME`].
///
/// # Errors
/// I/O failures (including clean EOF as `UnexpectedEof` on the header
/// read); a declared length above [`MAX_FRAME`] is
/// [`std::io::ErrorKind::InvalidData`] — the stream can no longer be
/// framed and must be dropped.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Ping,
            Request::TopK {
                node: 42,
                k: 10,
                approx: true,
                recall_target: 0.95,
            },
            Request::TopK {
                node: u64::MAX,
                k: 0,
                approx: false,
                recall_target: 0.0,
            },
            Request::Score { u: 3, v: 9 },
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let neighbors = vec![
            Neighbor {
                node: 7,
                id: 700,
                score: 1.25,
            },
            Neighbor {
                node: 2,
                id: 200,
                score: f64::NEG_INFINITY,
            },
        ];
        let cases = [
            (OP_PING, Response::Ok),
            (OP_TOP_K, Response::Neighbors(neighbors)),
            (OP_TOP_K, Response::Neighbors(Vec::new())),
            (OP_SCORE, Response::Score(-0.5)),
            (OP_SHUTDOWN, Response::Ok),
            (OP_TOP_K, Response::Error("node 9 out of range".into())),
        ];
        for (op, resp) in cases {
            assert_eq!(Response::decode(op, &resp.encode()).unwrap(), resp);
        }
        // NaN scores survive bitwise even though PartialEq can't see it.
        let nan = Response::Neighbors(vec![Neighbor {
            node: 0,
            id: 0,
            score: f64::NAN,
        }]);
        match Response::decode(OP_TOP_K, &nan.encode()).unwrap() {
            Response::Neighbors(got) => {
                assert_eq!(got[0].score.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_reasons() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xEE]).unwrap_err().contains("opcode"));
        assert!(Request::decode(&[OP_PING, 1]).is_err());
        assert!(Request::decode(&[OP_TOP_K, 1, 2]).is_err());
        assert!(Request::decode(&[OP_SCORE; 5]).is_err());
        // k over the cap.
        let mut big = Request::TopK {
            node: 0,
            k: (MAX_K + 1) as u32,
            approx: false,
            recall_target: 1.0,
        }
        .encode();
        assert!(Request::decode(&big).unwrap_err().contains("exceeds"));
        // Bad mode byte.
        big = Request::TopK {
            node: 0,
            k: 1,
            approx: false,
            recall_target: 1.0,
        }
        .encode();
        big[13] = 7;
        assert!(Request::decode(&big).unwrap_err().contains("mode"));
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        let mut sink = Vec::new();
        let oversize = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut sink, &oversize).is_err());
        assert!(sink.is_empty(), "nothing written for oversize payloads");

        // One frame is one `write` call, so it cannot leave as two
        // segments.
        struct CountingWriter(Vec<u8>, usize);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut counted = CountingWriter(Vec::new(), 0);
        write_frame(&mut counted, b"hello").unwrap();
        assert_eq!(counted.1, 1, "write calls per frame");
        assert_eq!(counted.0, [&5u32.to_le_bytes()[..], b"hello"].concat());

        let mut hostile = std::io::Cursor::new(((MAX_FRAME + 1) as u32).to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut hostile).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
