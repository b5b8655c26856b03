//! The TCP load generator. Every phase is a closed loop: an op is sent
//! only after the reply to the one before it, either over the whole op
//! stream on one thread ([`serial`]) or on every connection at once,
//! one thread each ([`closed_loop`] under [`on_all`]).
//!
//! Replies are kept as raw bytes and checked after the timed window, so
//! checking costs the server nothing while it is measured.

use crate::workload::Op;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use twx_netio::frame::{encode_frame, DecodeStep, FrameDecoder};

/// How long a connection waits for a reply before the op counts as
/// timed out and the connection's phase ends.
const REPLY_GRACE: Duration = Duration::from_secs(30);

/// One client connection speaking NDJSON or binary frames.
pub struct Conn {
    stream: TcpStream,
    binary: bool,
    lines: Vec<u8>,
    frames: FrameDecoder,
    buf: Box<[u8]>,
}

impl Conn {
    /// Connects; `binary` picks the framing.
    pub fn connect(addr: SocketAddr, binary: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_GRACE))?;
        Ok(Conn {
            stream,
            binary,
            lines: Vec::new(),
            frames: FrameDecoder::new(usize::MAX >> 1),
            buf: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    /// Writes one request.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.binary {
            self.stream.write_all(&encode_frame(payload))
        } else {
            let mut line = Vec::with_capacity(payload.len() + 1);
            line.extend_from_slice(payload);
            line.push(b'\n');
            self.stream.write_all(&line)
        }
    }

    /// Moves every complete reply already buffered into `out`.
    fn drain(&mut self, out: &mut Vec<Vec<u8>>) -> io::Result<()> {
        if self.binary {
            loop {
                match self.frames.next_step() {
                    DecodeStep::Frame(p) => out.push(p),
                    DecodeStep::NeedMore => return Ok(()),
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad reply framing: {other:?}"),
                        ))
                    }
                }
            }
        } else {
            while let Some(nl) = self.lines.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.lines.drain(..=nl).collect();
                line.pop();
                out.push(line);
            }
            Ok(())
        }
    }

    /// Reads until at least one reply is complete.
    fn read_replies(&mut self, out: &mut Vec<Vec<u8>>) -> io::Result<()> {
        let before = out.len();
        self.drain(out)?;
        while out.len() == before {
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    if self.binary {
                        self.frames.extend(&self.buf[..n]);
                    } else {
                        self.lines.extend_from_slice(&self.buf[..n]);
                    }
                    self.drain(out)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends one request and waits for its reply.
    pub fn roundtrip(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        self.send(payload)?;
        let mut out = Vec::with_capacity(1);
        self.read_replies(&mut out)?;
        Ok(out.remove(0))
    }
}

/// The fate of one sent op.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the op in its phase's op list.
    pub op: usize,
    /// Latency in nanoseconds, from the send to the reply. `None`: no
    /// reply within [`REPLY_GRACE`].
    pub latency_ns: Option<u64>,
    /// When the reply arrived (or the op was given up).
    pub done: Instant,
    /// The raw reply payload.
    pub reply: Vec<u8>,
}

/// What one connection saw during a phase.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// One entry per op sent, in send order.
    pub samples: Vec<Sample>,
    /// Transport failure that ended the phase early on this connection.
    pub error: Option<String>,
}

impl ConnLog {
    /// Sends op `i` of `ops` on `conn`, waits for its reply and records
    /// it; `false` when the connection failed.
    fn roundtrip(&mut self, conn: &mut Conn, ops: &[Op], i: usize) -> bool {
        let sent = Instant::now();
        let (latency_ns, reply) = match conn.roundtrip(ops[i].request().as_bytes()) {
            Ok(reply) => (Some(sent.elapsed().as_nanos() as u64), reply),
            Err(e) => {
                self.error = Some(e.to_string());
                (None, Vec::new())
            }
        };
        self.samples.push(Sample {
            op: i,
            latency_ns,
            done: Instant::now(),
            reply,
        });
        latency_ns.is_some()
    }
}

/// The op indices a phase walks: `ops` from `from` on, and with `cycle`
/// over and over from the start (for read-only op lists only, whose
/// answers do not depend on how often they ran).
fn walk(len: usize, from: usize, cycle: bool) -> impl Iterator<Item = usize> {
    let again = if cycle && len > 0 { usize::MAX } else { 0 };
    (from..len).chain((0..again).flat_map(move |_| 0..len))
}

/// Runs `ops` from `from` on, one at a time on one thread, each on the
/// connection it names, until `deadline` passes or the ops run out
/// (with `cycle`, see [`walk`]). The server sees the ops in stream
/// order whatever the timing, so its caches go through the same states
/// on every run of a seed. Appends to `logs` (one per connection) and
/// returns the index of the first op not sent.
pub fn serial(
    conns: &mut [Conn],
    logs: &mut [ConnLog],
    ops: &[Op],
    from: usize,
    deadline: Instant,
    cycle: bool,
) -> usize {
    let mut next = from;
    for i in walk(ops.len(), from, cycle) {
        if Instant::now() >= deadline {
            break;
        }
        next = i + 1;
        let c = ops[i].conn;
        if !logs[c].roundtrip(&mut conns[c], ops, i) {
            break;
        }
    }
    next
}

/// Runs a closed-loop phase on one connection: sends the ops of `ops`
/// it owns from `from` on, one at a time, until `deadline` passes or
/// they run out (with `cycle`, see [`walk`]).
pub fn closed_loop(
    conn: &mut Conn,
    ops: &[Op],
    owner: usize,
    from: usize,
    deadline: Instant,
    cycle: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    if !ops.iter().any(|op| op.conn == owner) {
        return log;
    }
    for i in walk(ops.len(), from, cycle).filter(|&i| ops[i].conn == owner) {
        if Instant::now() >= deadline || !log.roundtrip(conn, ops, i) {
            break;
        }
    }
    log
}

/// Runs `phase` on every connection at once, one thread each, while
/// the calling thread runs `beside`; returns the logs in connection
/// order and what `beside` returned.
pub fn on_all<F, B, T>(conns: &mut [Conn], phase: F, beside: B) -> (Vec<ConnLog>, T)
where
    F: Fn(&mut Conn, usize) -> ConnLog + Sync,
    B: FnOnce() -> T,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(owner, conn)| {
                let phase = &phase;
                s.spawn(move || phase(conn, owner))
            })
            .collect();
        let t = beside();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect();
        (logs, t)
    })
}
