//! Closed-loop load generation over the wire, untraced and traced.
//!
//! Each client thread owns one connection and one [`OpGen`]: it plans a
//! request, sends it, waits for the reply, checks the answer, and only
//! then plans the next one. The loop runs until a deadline; every
//! completed request leaves one [`Sample`].

use crate::trace::{Tracer, REQUEST};
use quarry_serve::protocol::{
    read_frame, write_request, Payload, Request, Response, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use quarry_serve::Client;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop clients of a workload, unless it says otherwise (the host
/// has two CPUs).
pub const CLIENTS: usize = 2;

/// Reply timeout for every benchmark connection.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// SplitMix64: a small seeded generator, so inputs depend on the seed
/// alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// What a request is, for latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read: query, keyword search, explain.
    Read,
    /// `InsertRows` / `DeleteRows`.
    Write,
    /// Anything else (checkpoints).
    Other,
}

/// A planned request and what its answer must look like.
pub struct Planned<T> {
    /// Latency class.
    pub kind: Kind,
    /// What goes on the wire.
    pub req: Request,
    /// Workload-specific expectation, handed back to [`OpGen::check`].
    pub expect: T,
}

/// A per-client request stream.
pub trait OpGen: Send {
    /// Workload-specific expectation type.
    type Expect;
    /// Plan the next request.
    fn next(&mut self) -> Planned<Self::Expect>;
    /// Check a reply; `true` when it is the right answer. Called once per
    /// reply, in order, so a generator may advance its own state on an
    /// acknowledged write.
    fn check(&mut self, planned: &Planned<Self::Expect>, payload: &Payload) -> bool;
    /// Called instead of [`OpGen::check`] when the call itself failed and
    /// no reply came back, so a generator can undo what
    /// [`OpGen::next`] began.
    fn failed(&mut self, _planned: &Planned<Self::Expect>) {}
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency class.
    pub kind: Kind,
    /// Client-observed latency.
    pub ns: u64,
    /// Answered correctly.
    pub ok: bool,
    /// Answered `Overloaded`.
    pub overloaded: bool,
    /// Completion time, ns since the phase started.
    pub at: u64,
}

/// One client thread's output.
pub struct ClientRun<G, C> {
    /// The generator, positioned after the last request sent.
    pub gen: G,
    /// The connection state, e.g. its tracer.
    pub conn: C,
    /// Every completed request in order.
    pub samples: Vec<Sample>,
}

/// A whole closed-loop phase.
pub struct LoopRun<G, C> {
    /// Per-client outputs.
    pub clients: Vec<ClientRun<G, C>>,
    /// Wall time from the start barrier to the last reply.
    pub wall: Duration,
}

impl<G, C> LoopRun<G, C> {
    /// Hand the generators and connections out, keeping the samples.
    pub fn split(self) -> (Vec<G>, Vec<C>, LoopRun<(), ()>) {
        let mut gens = Vec::with_capacity(self.clients.len());
        let mut conns = Vec::with_capacity(self.clients.len());
        let clients = self
            .clients
            .into_iter()
            .map(|c| {
                gens.push(c.gen);
                conns.push(c.conn);
                ClientRun { gen: (), conn: (), samples: c.samples }
            })
            .collect();
        (gens, conns, LoopRun { clients, wall: self.wall })
    }

    /// Every sample of every client.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| c.samples.iter())
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        self.samples().count() as f64 / self.wall.as_secs_f64()
    }

    /// Requests that failed, were refused, or got a wrong answer.
    pub fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    fn slice_ns(&self, slices: usize) -> u64 {
        (self.wall.as_nanos() as u64 / slices as u64).max(1)
    }

    /// Completions per second in each of `slices` equal time slices of
    /// the phase.
    pub fn slice_rates(&self, slices: usize) -> Vec<f64> {
        let slice_ns = self.slice_ns(slices);
        let mut counts = vec![0u64; slices];
        for s in self.samples() {
            counts[((s.at / slice_ns) as usize).min(slices - 1)] += 1;
        }
        counts.iter().map(|&c| c as f64 / (slice_ns as f64 / 1e9)).collect()
    }

    /// Sorted latencies (ns) of one kind, per time slice of completion.
    pub fn slice_latencies(&self, kind: Kind, slices: usize) -> Vec<Vec<u64>> {
        let slice_ns = self.slice_ns(slices);
        let mut out = vec![Vec::new(); slices];
        for s in self.samples().filter(|s| s.kind == kind) {
            out[((s.at / slice_ns) as usize).min(slices - 1)].push(s.ns);
        }
        for v in &mut out {
            v.sort_unstable();
        }
        out
    }

    /// Sorted latencies (ns) of one kind.
    pub fn latencies(&self, kind: Kind) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples().filter(|s| s.kind == kind).map(|s| s.ns).collect();
        v.sort_unstable();
        v
    }
}

/// Something that can carry one request to the server and back.
pub trait Conn: Send {
    /// Send `req` (numbered `seq` in this client's stream) and wait for
    /// the reply.
    fn call(&mut self, seq: u64, req: &Request) -> Result<Response, String>;
}

impl Conn for Client {
    fn call(&mut self, _seq: u64, req: &Request) -> Result<Response, String> {
        self.request(req).map_err(|e| e.to_string())
    }
}

/// Run `gens.len()` closed-loop clients for `duration`. `completed` is
/// bumped after every reply, for samplers running beside the loop.
pub fn closed_loop<G, C>(
    gens: Vec<G>,
    conns: Vec<C>,
    duration: Duration,
    completed: &AtomicU64,
) -> LoopRun<G, C>
where
    G: OpGen,
    C: Conn,
{
    let barrier = Barrier::new(gens.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .zip(conns)
            .map(|(mut gen, mut conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 14);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + duration;
                    let mut seq = 0u64;
                    while Instant::now() < deadline {
                        let planned = gen.next();
                        let t0 = Instant::now();
                        let reply = conn.call(seq, &planned.req);
                        let ns = t0.elapsed().as_nanos() as u64;
                        let (ok, overloaded) = match reply {
                            Ok(resp) => (
                                gen.check(&planned, &resp.payload),
                                matches!(resp.payload, Payload::Overloaded),
                            ),
                            Err(e) => {
                                eprintln!("request {seq} failed: {e}");
                                gen.failed(&planned);
                                (false, false)
                            }
                        };
                        let at = start.elapsed().as_nanos() as u64;
                        samples.push(Sample { kind: planned.kind, ns, ok, overloaded, at });
                        completed.fetch_add(1, Ordering::Relaxed);
                        seq += 1;
                    }
                    ClientRun { gen, conn, samples }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let clients: Vec<ClientRun<G, C>> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        LoopRun { clients, wall: start.elapsed() }
    })
}

/// Connect `n` product clients to `addr`.
pub fn clients(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| Client::connect_with(addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// A raw protocol connection that records one span tree per request:
///
/// ```text
/// request                       client total
/// ├── protocol.encode           write_request into a buffer
/// ├── serve.wire                socket write + read_frame (wait)
/// │   └── serve.server          the reply's server_micros
/// └── protocol.decode           JSON decode of the reply payload
/// ```
///
/// `serve.server` is known only as a duration; it is placed at the start
/// of the wire span. Self time of `serve.wire` is socket, kernel and
/// server-side framing and codec time.
pub struct TracedConn {
    stream: TcpStream,
    /// What this connection has recorded so far.
    pub trace: WireTrace,
    /// Stream-wide request id offset (client index in the high bits).
    id_base: u64,
}

/// What a [`TracedConn`] recorded, one entry per request in order.
pub struct WireTrace {
    /// The span trees.
    pub tracer: Tracer,
    /// Request + reply frame bytes of each answered request.
    pub frame_bytes: Vec<u64>,
    /// Each call's reply `server_micros`, `None` when the call failed:
    /// entry `i` belongs to the connection's `i`-th sample.
    pub server_us: Vec<Option<u64>>,
}

/// A connection that records a [`WireTrace`].
pub trait TracedWire: Conn {
    /// What it has recorded so far.
    fn wire(&self) -> &WireTrace;
}

impl TracedConn {
    /// Connect for client `client`.
    pub fn connect(addr: SocketAddr, client: usize, origin: Instant) -> Result<TracedConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let trace = WireTrace {
            tracer: Tracer::new(origin),
            frame_bytes: Vec::new(),
            server_us: Vec::new(),
        };
        Ok(TracedConn { stream, trace, id_base: (client as u64) << 40 })
    }

    /// The request id of the `seq`-th request of this connection.
    pub fn id(&self, seq: u64) -> u64 {
        self.id_base + seq + 1
    }

    /// Encode, send, wait and decode under `root`; the reply and the
    /// request + reply frame bytes.
    fn exchange(&mut self, id: u64, root: usize, req: &Request) -> Result<(Response, u64), String> {
        let t = &mut self.trace.tracer;
        let enc = t.begin(id, "protocol.encode", Some(root));
        let mut frame = Vec::new();
        write_request(&mut frame, id, req).map_err(|e| e.to_string())?;
        t.end(enc);
        let wire = t.begin(id, "serve.wire", Some(root));
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        let (_, payload) =
            read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
        t.end(wire);
        let dec = t.begin(id, "protocol.decode", Some(root));
        let resp: Response = serde_json::from_slice(&payload).map_err(|e| e.to_string())?;
        t.end(dec);
        let (wire_start, wire_end) = (t.spans()[wire].start, t.spans()[wire].end);
        let server_end = (wire_start + resp.server_micros * 1000).min(wire_end);
        t.record(id, "serve.server", wire_start, server_end, Some(wire));
        Ok((resp, (frame.len() + HEADER_LEN + payload.len()) as u64))
    }
}

impl Conn for TracedConn {
    fn call(&mut self, seq: u64, req: &Request) -> Result<Response, String> {
        let id = self.id(seq);
        let root = self.trace.tracer.begin(id, REQUEST, None);
        let out = self.exchange(id, root, req);
        // A failed call still closes its tree, so every call is one root.
        self.trace.tracer.end_tree(root);
        self.trace.server_us.push(out.as_ref().ok().map(|(resp, _)| resp.server_micros));
        let (resp, bytes) = out?;
        self.trace.frame_bytes.push(bytes);
        Ok(resp)
    }
}

impl TracedWire for TracedConn {
    fn wire(&self) -> &WireTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{reconcile, self_times};

    use quarry_core::{Quarry, QuarryConfig};
    use quarry_serve::{ServeConfig, Server};

    #[test]
    fn traced_requests_reconcile_against_a_live_server() {
        let quarry = Quarry::new(QuarryConfig::default()).unwrap();
        let server = Server::start(quarry, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut conn = TracedConn::connect(server.local_addr(), 0, Instant::now()).unwrap();
        for seq in 0..20 {
            let resp = conn.call(seq, &Request::Ping).unwrap();
            assert_eq!(resp.payload, Payload::Pong);
        }
        let TracedConn { trace, stream, .. } = conn;
        drop(stream);
        let spans = trace.tracer.spans();
        let rec = reconcile(spans);
        assert_eq!((rec.roots, rec.mismatches), (20, 0));
        let running = trace.tracer.reconciliation();
        assert_eq!((running.roots, running.mismatches), (20, 0));
        // Per request: encode + wire + server + decode + unattributed is
        // exactly the client total.
        let selfs = self_times(spans);
        for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            let layers: u64 = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.req == root.req && s.parent.is_some())
                .map(|(j, _)| selfs[j])
                .sum();
            assert_eq!(layers + selfs[i], root.end - root.start);
        }
        assert_eq!(trace.server_us.len(), 20);
        drop(server);
    }

    #[test]
    fn a_failed_call_keeps_one_tree_and_one_server_entry() {
        // A peer that hangs up without replying.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let mut conn = TracedConn::connect(addr, 0, Instant::now()).unwrap();
        peer.join().unwrap();
        assert!(conn.call(0, &Request::Ping).is_err());
        assert_eq!(conn.trace.server_us, vec![None]);
        assert!(conn.trace.frame_bytes.is_empty());
        let rec = conn.trace.tracer.reconciliation();
        assert_eq!((rec.roots, rec.mismatches), (1, 0));
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(10)
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.below(10)
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
