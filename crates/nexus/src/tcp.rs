//! Real TCP transport: hub-and-spoke sockets carrying `wire` frames.
//!
//! The process hosting the interchange owns a [`TcpHub`]: a loopback (or
//! any-interface) listener plus a router. Ports in that process — the
//! interchange and the executor client — attach to the hub directly, so
//! a frame between them is one channel send. Remote processes (spawned
//! worker managers) connect a [`TcpSpoke`], identify themselves with a
//! `Hello` frame, and then exchange `Data { from, to, payload }` frames.
//! The hub routes each frame to a locally attached port or to another
//! spoke by name, giving the same any-to-any addressing as the in-proc
//! fabric, over real sockets. This is the reproduction's stand-in for
//! Parsl HTEX's ZeroMQ planes (§4.3).
//!
//! Fault behavior:
//! - A dropped connection ([`TcpHub::drop_conn`], a died process, a
//!   half-written frame) discards the torn frame with the socket; both
//!   sides reset their stream decoders on the next connection.
//! - A [`TcpSpoke`] reconnects automatically within a configured window,
//!   buffering outbound frames in FIFO order while the link is down and
//!   flushing them — after a fresh `Hello` — before anything newer, so
//!   peer-observed ordering survives the gap. Each reconnect bumps the
//!   spoke's [`Port::generation`], which managers watch to re-register.
//! - When the window expires the spoke closes; pending sends fail and the
//!   inbox channel disconnects, so protocol loops exit exactly as they do
//!   when the in-proc fabric kills an endpoint.

use crate::addr::Addr;
use crate::endpoint::Envelope;
use crate::error::{RecvError, SendError};
use crate::transport::{Port, Transport, TransportError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read buffer size for socket reader threads.
const IO_CHUNK: usize = 64 * 1024;

/// Everything on the wire is one of these, `wire`-encoded inside a
/// length-prefixed frame.
#[derive(Serialize, Deserialize)]
enum TcpFrame {
    /// First frame on every connection: the spoke's claimed address.
    Hello { name: String },
    /// An addressed message. The payload encodes as raw bytes (varint
    /// length + body, via [`RawBytes`]), NOT as a `Vec<u8>` element
    /// sequence — [`peek_data_header`] and the hub's verbatim relay
    /// depend on the payload being a contiguous byte run in the frame.
    Data {
        from: String,
        to: String,
        payload: RawBytes,
    },
}

/// Payload wrapper that serializes through serde's bytes calls, so the
/// wire format is a varint length followed by the raw body as one
/// contiguous run — the derive on `Vec<u8>` would emit a per-element
/// varint sequence, where bytes ≥ 0x80 grow to two bytes and the payload
/// could not be sliced (or relayed) straight out of the frame.
struct RawBytes(Vec<u8>);

impl Serialize for RawBytes {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(&self.0)
    }
}

impl<'de> Deserialize<'de> for RawBytes {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct BytesVisitor;
        impl<'de> serde::de::Visitor<'de> for BytesVisitor {
            type Value = RawBytes;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "raw bytes")
            }
            fn visit_bytes<E: serde::de::Error>(self, b: &[u8]) -> Result<RawBytes, E> {
                Ok(RawBytes(b.to_vec()))
            }
            fn visit_byte_buf<E: serde::de::Error>(self, b: Vec<u8>) -> Result<RawBytes, E> {
                Ok(RawBytes(b))
            }
        }
        d.deserialize_byte_buf(BytesVisitor)
    }
}

/// Variant index of [`TcpFrame::Data`] on the wire.
const DATA_VARIANT: u64 = 1;

/// A length-prefixed frame in one buffer: `body` writes behind four
/// reserved bytes, which then take its length.
fn encode_frame(body_hint: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body_hint);
    out.extend_from_slice(&[0; 4]);
    body(&mut out);
    let len = u32::try_from(out.len() - 4).expect("frame body fits its u32 length prefix");
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

fn encode_tcp_frame(f: &TcpFrame) -> Vec<u8> {
    encode_frame(64, |out| {
        wire::to_writer(f, out).expect("tcp control frames always encode")
    })
}

/// The frame [`encode_tcp_frame`] makes of a [`TcpFrame::Data`], written
/// from borrowed parts: the send paths copy the payload once, into the
/// buffer the socket write reads, and allocate nothing else.
fn encode_data_frame(from: &Addr, to: &Addr, payload: &[u8]) -> Vec<u8> {
    let fields = [from.as_str().as_bytes(), to.as_str().as_bytes(), payload];
    // Variant byte plus three length varints of at most five bytes each.
    let hint = 16 + fields.iter().map(|f| f.len()).sum::<usize>();
    encode_frame(hint, |out| {
        wire::encode_varint(DATA_VARIANT, out);
        for field in fields {
            wire::encode_varint(field.len() as u64, out);
            out.extend_from_slice(field);
        }
    })
}

/// One registered remote connection on the hub.
struct Conn {
    /// Monotonic id guarding against a stale reader tearing down its
    /// replacement after a reconnect races in.
    id: u64,
    writer: Mutex<TcpStream>,
}

impl Conn {
    fn close(&self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }
}

struct HubInner {
    listen: SocketAddr,
    max_frame_bytes: usize,
    closed: AtomicBool,
    next_conn: AtomicU64,
    /// Frames forwarded spoke→spoke verbatim (no decode, no re-encode).
    relayed: AtomicU64,
    /// Ports attached in this process.
    local: Mutex<HashMap<Addr, Sender<Envelope>>>,
    /// Spokes registered via `Hello`, by claimed name.
    conns: Mutex<HashMap<Addr, Arc<Conn>>>,
}

impl HubInner {
    /// Deliver a locally originated message (a hub-side port's `send`) to
    /// a local port or a registered spoke. Spoke traffic never takes this
    /// path — it arrives already framed and goes through
    /// [`HubInner::route_raw`].
    fn route(&self, from: &Addr, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SendError::SelfClosed);
        }
        if let Some(tx) = self.local.lock().get(to).cloned() {
            return tx
                .send(Envelope {
                    from: from.clone(),
                    payload,
                })
                .map_err(|_| SendError::PeerGone(to.clone()));
        }
        let Some(conn) = self.conns.lock().get(to).cloned() else {
            return Err(SendError::PeerGone(to.clone()));
        };
        let frame = encode_data_frame(from, to, &payload);
        let failed = conn.writer.lock().write_all(&frame).is_err();
        if failed {
            self.drop_conn_if_current(to, conn.id);
            return Err(SendError::PeerGone(to.clone()));
        }
        Ok(())
    }

    /// Hot path for frames arriving from a spoke: the `Data` header has
    /// been peeked (not deserialized), `payload` locates the payload bytes
    /// inside `frame`. Local delivery slices the payload out of the frame
    /// buffer; a remote destination gets the original frame bytes verbatim
    /// under a fresh length prefix — the payload is never decoded, copied,
    /// or re-encoded on the way through.
    fn route_raw(
        &self,
        from: &Addr,
        to: &Addr,
        frame: Bytes,
        payload: std::ops::Range<usize>,
    ) -> Result<(), SendError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SendError::SelfClosed);
        }
        if let Some(tx) = self.local.lock().get(to).cloned() {
            return tx
                .send(Envelope {
                    from: from.clone(),
                    payload: frame.slice(payload),
                })
                .map_err(|_| SendError::PeerGone(to.clone()));
        }
        let Some(conn) = self.conns.lock().get(to).cloned() else {
            return Err(SendError::PeerGone(to.clone()));
        };
        let prefix = (frame.len() as u32).to_le_bytes();
        let failed = {
            let mut w = conn.writer.lock();
            w.write_all(&prefix)
                .and_then(|()| w.write_all(&frame))
                .is_err()
        };
        if failed {
            self.drop_conn_if_current(to, conn.id);
            return Err(SendError::PeerGone(to.clone()));
        }
        self.relayed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove and close the connection named `name` iff it is still the
    /// incarnation identified by `id`.
    fn drop_conn_if_current(&self, name: &Addr, id: u64) -> bool {
        let mut conns = self.conns.lock();
        if conns.get(name).is_some_and(|c| c.id == id) {
            let c = conns.remove(name).expect("checked present");
            drop(conns);
            c.close();
            true
        } else {
            false
        }
    }
}

/// Wire layout of [`TcpFrame::Data`], peeked without deserializing: the
/// variant index, then `from`, `to`, and the payload, each length-prefixed.
/// Returns the two address fields (borrowed from the frame) and the
/// payload's byte range, or `None` if the frame is not a well-formed
/// `Data` (a `Hello`, or garbage — the caller falls back to a full
/// decode to tell which).
fn peek_data_header(frame: &[u8]) -> Option<(&str, &str, std::ops::Range<usize>)> {
    let (variant, mut off) = wire::decode_varint(frame).ok()?;
    if variant != DATA_VARIANT {
        return None;
    }
    let (from, used) = wire::decode_str_prefix(&frame[off..]).ok()?;
    off += used;
    let (to, used) = wire::decode_str_prefix(&frame[off..]).ok()?;
    off += used;
    let (payload_len, used) = wire::decode_varint(&frame[off..]).ok()?;
    off += used;
    let end = off.checked_add(usize::try_from(payload_len).ok()?)?;
    // The payload is the last field; anything shorter or longer is corrupt.
    (end == frame.len()).then_some((from, to, off..end))
}

/// Per-connection reader: handshake, then route until EOF. `Data` frames
/// — the hot path — are routed from their raw bytes via
/// [`peek_data_header`]; only `Hello` (once per connection) pays a full
/// decode.
fn hub_conn_reader(inner: Arc<HubInner>, mut stream: TcpStream) {
    let mut decoder = wire::StreamDecoder::new();
    let mut buf = vec![0u8; IO_CHUNK];
    // (name, id) once the Hello arrives.
    let mut registered: Option<(Addr, u64)> = None;
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        decoder.feed(&buf[..n]);
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Corrupt stream: kill the connection, never panic.
                Err(_) => break 'conn,
            };
            // Hot path: route a Data frame straight from its raw bytes.
            let peeked = peek_data_header(&frame).map(|(from, to, payload)| {
                let from_ok = registered.as_ref().is_some_and(|(a, _)| a.as_str() == from);
                (from_ok, Addr::new(to), payload)
            });
            if let Some((from_ok, to, payload)) = peeked {
                let Some((from, _)) = registered.as_ref() else {
                    break 'conn; // data before Hello
                };
                if !from_ok {
                    break 'conn; // spoke speaking as someone else
                }
                // Destination gone: drop the frame, like a lossy link.
                // Heartbeats recover anything that mattered.
                let _ = inner.route_raw(from, &to, frame, payload);
                continue;
            }
            let Ok(msg) = wire::from_bytes::<TcpFrame>(&frame) else {
                break 'conn;
            };
            match msg {
                TcpFrame::Hello { name } => {
                    if registered.is_some() {
                        break 'conn; // protocol violation
                    }
                    let Ok(writer) = stream.try_clone() else {
                        break 'conn;
                    };
                    let name = Addr::new(name);
                    let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
                    let conn = Arc::new(Conn {
                        id,
                        writer: Mutex::new(writer),
                    });
                    // Register under the conns lock, checking `closed`
                    // under that same lock: a Hello racing `shutdown`
                    // either lands before the drain (and is swept with
                    // the rest) or observes `closed` here — it must not
                    // slip in after the sweep and keep the link open.
                    let mut conns = inner.conns.lock();
                    if inner.closed.load(Ordering::Acquire) {
                        break 'conn;
                    }
                    // A reconnect replaces (and closes) the old incarnation.
                    if let Some(old) = conns.insert(name.clone(), conn) {
                        old.close();
                    }
                    drop(conns);
                    registered = Some((name, id));
                }
                // Every well-formed Data frame was already routed raw
                // above; one that peeks as malformed but still decodes
                // is impossible (same layout), so treat it as corrupt.
                TcpFrame::Data { .. } => break 'conn,
            }
        }
    }
    if let Some((name, id)) = registered {
        inner.drop_conn_if_current(&name, id);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn hub_accept_loop(inner: Arc<HubInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.closed.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("nexus-tcp-conn".into())
            .spawn(move || hub_conn_reader(inner, stream))
            .expect("spawn tcp reader thread");
    }
}

/// The listening side of the TCP plane; lives in the interchange process.
pub struct TcpHub {
    inner: Arc<HubInner>,
}

impl TcpHub {
    /// Bind a listener (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and start accepting spokes.
    pub fn bind(addr: &str) -> std::io::Result<TcpHub> {
        Self::bind_with(addr, crate::fabric::DEFAULT_MAX_FRAME_BYTES)
    }

    /// [`TcpHub::bind`] with an explicit frame budget.
    pub fn bind_with(addr: &str, max_frame_bytes: usize) -> std::io::Result<TcpHub> {
        let listener = TcpListener::bind(addr)?;
        let inner = Arc::new(HubInner {
            listen: listener.local_addr()?,
            max_frame_bytes,
            closed: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            relayed: AtomicU64::new(0),
            local: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("nexus-tcp-accept".into())
            .spawn(move || hub_accept_loop(accept_inner, listener))
            .expect("spawn tcp accept thread");
        Ok(TcpHub { inner })
    }

    /// The socket address spokes should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.listen
    }

    /// Names of currently registered spokes.
    pub fn connected(&self) -> Vec<Addr> {
        self.inner.conns.lock().keys().cloned().collect()
    }

    /// Frames forwarded spoke→spoke as raw bytes (header peeked, payload
    /// never decoded or re-encoded). Local deliveries don't count.
    pub fn relayed_frames(&self) -> u64 {
        self.inner.relayed.load(Ordering::Relaxed)
    }

    /// Fault injection: sever the connection registered as `name`.
    ///
    /// The torn socket surfaces as EOF on both sides; a reconnecting
    /// spoke re-registers with a fresh `Hello`. Returns false if no such
    /// connection exists.
    pub fn drop_conn(&self, name: &Addr) -> bool {
        let conn = self.inner.conns.lock().get(name).map(|c| c.id);
        match conn {
            Some(id) => self.inner.drop_conn_if_current(name, id),
            None => false,
        }
    }

    /// Stop accepting, close every connection, and detach local ports.
    pub fn shutdown(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop so it observes `closed`.
        let _ = TcpStream::connect(self.inner.listen);
        let conns: Vec<_> = self.inner.conns.lock().drain().collect();
        for (_, c) in conns {
            c.close();
        }
        self.inner.local.lock().clear();
    }
}

impl Drop for TcpHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for TcpHub {
    fn attach(&self, addr: Addr) -> Result<Box<dyn Port>, TransportError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(TransportError("hub is shut down".into()));
        }
        let (tx, rx) = unbounded();
        let mut local = self.inner.local.lock();
        if local.contains_key(&addr) {
            return Err(TransportError(format!("address {addr} already attached")));
        }
        local.insert(addr.clone(), tx);
        drop(local);
        Ok(Box::new(HubPort {
            addr,
            rx,
            inner: Arc::clone(&self.inner),
        }))
    }

    fn max_frame_bytes(&self) -> usize {
        self.inner.max_frame_bytes
    }
}

/// A port attached directly to the hub (interchange side).
struct HubPort {
    addr: Addr,
    rx: Receiver<Envelope>,
    inner: Arc<HubInner>,
}

impl Port for HubPort {
    fn addr(&self) -> &Addr {
        &self.addr
    }

    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.inner.route(&self.addr, to, payload)
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Closed,
        })
    }

    fn try_recv(&self) -> Option<Envelope> {
        match self.rx.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    fn queued(&self) -> usize {
        self.rx.len()
    }

    fn receiver(&self) -> &Receiver<Envelope> {
        &self.rx
    }
}

impl Drop for HubPort {
    fn drop(&mut self) {
        self.inner.local.lock().remove(&self.addr);
    }
}

/// Reconnection policy for a [`TcpSpoke`].
#[derive(Debug, Clone)]
pub struct SpokeConfig {
    /// Delay between connection attempts while the link is down.
    pub retry_interval: Duration,
    /// How long a disconnected spoke keeps retrying before giving up and
    /// closing. Mirrors the paper's managers exiting on lost interchange
    /// contact to avoid wasting allocation time (§4.3.1).
    pub reconnect_window: Duration,
}

impl Default for SpokeConfig {
    fn default() -> Self {
        SpokeConfig {
            retry_interval: Duration::from_millis(25),
            reconnect_window: Duration::from_secs(10),
        }
    }
}

struct SpokeState {
    /// Write half of the live connection, if any.
    writer: Option<TcpStream>,
    /// Encoded frames queued while the link is down, flushed FIFO on
    /// reconnect (after the fresh `Hello`, before anything newer).
    pending: VecDeque<Vec<u8>>,
}

struct SpokeInner {
    name: Addr,
    server: SocketAddr,
    cfg: SpokeConfig,
    closed: AtomicBool,
    generation: AtomicU64,
    state: Mutex<SpokeState>,
}

/// The connecting side of the TCP plane: one process's addressed port.
pub struct TcpSpoke {
    inner: Arc<SpokeInner>,
    rx: Receiver<Envelope>,
}

impl TcpSpoke {
    /// Connect to a hub at `server`, announce `name`, and start the
    /// reader thread. Fails fast if the initial connection is refused.
    pub fn connect<A: ToSocketAddrs>(
        server: A,
        name: Addr,
        cfg: SpokeConfig,
    ) -> std::io::Result<TcpSpoke> {
        let server = server
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("no address resolved"))?;
        let stream = TcpStream::connect(server)?;
        stream.set_nodelay(true)?;
        (&stream).write_all(&encode_tcp_frame(&TcpFrame::Hello {
            name: name.to_string(),
        }))?;
        let writer = stream.try_clone()?;
        let inner = Arc::new(SpokeInner {
            name,
            server,
            cfg,
            closed: AtomicBool::new(false),
            generation: AtomicU64::new(1),
            state: Mutex::new(SpokeState {
                writer: Some(writer),
                pending: VecDeque::new(),
            }),
        });
        let (tx, rx) = unbounded();
        let reader_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("nexus-tcp-spoke".into())
            .spawn(move || spoke_reader(reader_inner, stream, tx))
            .expect("spawn tcp spoke reader");
        Ok(TcpSpoke { inner, rx })
    }

    /// True once the spoke has given up (window expired or closed).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Close the spoke; the reader thread exits and pending sends fail.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        if let Some(w) = self.inner.state.lock().writer.take() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpSpoke {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reader thread: decode inbound frames; on link loss, reconnect within
/// the window, replay the pending queue, and bump the generation.
fn spoke_reader(inner: Arc<SpokeInner>, mut stream: TcpStream, tx: Sender<Envelope>) {
    let mut buf = vec![0u8; IO_CHUNK];
    'link: loop {
        let mut decoder = wire::StreamDecoder::new();
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            decoder.feed(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => {
                        // Same header peek as the hub: the payload is
                        // sliced out of the frame buffer, never decoded
                        // or copied. Non-Data frames are ignored.
                        let hdr =
                            peek_data_header(&frame).map(|(f, _, range)| (Addr::new(f), range));
                        if let Some((from, range)) = hdr {
                            if tx
                                .send(Envelope {
                                    from,
                                    payload: frame.slice(range),
                                })
                                .is_err()
                            {
                                break 'link; // port dropped
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break, // corrupt stream: treat as link loss
                }
            }
        }
        // Link lost: invalidate the writer so sends start buffering.
        {
            let mut st = inner.state.lock();
            if let Some(w) = st.writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        if inner.closed.load(Ordering::Acquire) {
            break 'link;
        }
        let deadline = Instant::now() + inner.cfg.reconnect_window;
        stream = loop {
            if inner.closed.load(Ordering::Acquire) || Instant::now() >= deadline {
                break 'link;
            }
            let Ok(s) = TcpStream::connect(inner.server) else {
                std::thread::sleep(inner.cfg.retry_interval);
                continue;
            };
            let _ = s.set_nodelay(true);
            // Re-handshake and replay the pending queue under the state
            // lock so concurrent send() calls keep FIFO order.
            let mut st = inner.state.lock();
            let hello = encode_tcp_frame(&TcpFrame::Hello {
                name: inner.name.to_string(),
            });
            let mut ok = (&s).write_all(&hello).is_ok();
            while ok {
                let Some(frame) = st.pending.front() else {
                    break;
                };
                if (&s).write_all(frame).is_ok() {
                    st.pending.pop_front();
                } else {
                    ok = false;
                }
            }
            let writer = if ok { s.try_clone().ok() } else { None };
            let Some(writer) = writer else {
                drop(st);
                std::thread::sleep(inner.cfg.retry_interval);
                continue;
            };
            st.writer = Some(writer);
            drop(st);
            inner.generation.fetch_add(1, Ordering::Release);
            break s;
        };
    }
    inner.closed.store(true, Ordering::Release);
    if let Some(w) = inner.state.lock().writer.take() {
        let _ = w.shutdown(Shutdown::Both);
    }
    // Dropping `tx` here disconnects the inbox: recv() reports Closed.
}

impl Port for TcpSpoke {
    fn addr(&self) -> &Addr {
        &self.inner.name
    }

    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(SendError::SelfClosed);
        }
        let frame = encode_data_frame(&self.inner.name, to, &payload);
        let mut st = self.inner.state.lock();
        match st.writer.as_ref() {
            Some(w) => {
                let mut wref = w;
                if wref.write_all(&frame).is_ok() {
                    Ok(())
                } else {
                    // Broken mid-write: the torn frame dies with the
                    // socket. Queue a clean copy for the next link and
                    // wake the reader into its reconnect loop.
                    if let Some(w) = st.writer.take() {
                        let _ = w.shutdown(Shutdown::Both);
                    }
                    st.pending.push_back(frame);
                    Ok(())
                }
            }
            None => {
                st.pending.push_back(frame);
                Ok(())
            }
        }
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Closed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Closed,
        })
    }

    fn try_recv(&self) -> Option<Envelope> {
        match self.rx.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    fn queued(&self) -> usize {
        self.rx.len()
    }

    fn receiver(&self) -> &Receiver<Envelope> {
        &self.rx
    }

    fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> TcpHub {
        TcpHub::bind("127.0.0.1:0").unwrap()
    }

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn spoke_to_local_port_roundtrip() {
        let hub = hub();
        let ix = hub.attach(Addr::new("ix")).unwrap();
        let spoke =
            TcpSpoke::connect(hub.local_addr(), Addr::new("mgr"), SpokeConfig::default()).unwrap();
        spoke
            .send(&Addr::new("ix"), Bytes::from_static(b"register"))
            .unwrap();
        let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from.as_str(), "mgr");
        assert_eq!(&env.payload[..], b"register");
        // And back: hub-side port to the spoke by name.
        ix.send(&Addr::new("mgr"), Bytes::from_static(b"task"))
            .unwrap();
        let env = spoke.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from.as_str(), "ix");
        assert_eq!(&env.payload[..], b"task");
    }

    #[test]
    fn spoke_to_spoke_routes_through_hub() {
        let hub = hub();
        let a =
            TcpSpoke::connect(hub.local_addr(), Addr::new("a"), SpokeConfig::default()).unwrap();
        let b =
            TcpSpoke::connect(hub.local_addr(), Addr::new("b"), SpokeConfig::default()).unwrap();
        wait_for(|| hub.connected().len() == 2, "both spokes registered");
        a.send(&Addr::new("b"), Bytes::from_static(b"hi")).unwrap();
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(&env.payload[..], b"hi");
    }

    #[test]
    fn send_to_unknown_name_is_peer_gone() {
        let hub = hub();
        let ix = hub.attach(Addr::new("ix")).unwrap();
        assert!(matches!(
            ix.send(&Addr::new("ghost"), Bytes::from_static(b"x")),
            Err(SendError::PeerGone(_))
        ));
    }

    #[test]
    fn dropped_conn_reconnects_and_replays_pending() {
        let hub = hub();
        let ix = hub.attach(Addr::new("ix")).unwrap();
        let spoke = TcpSpoke::connect(
            hub.local_addr(),
            Addr::new("mgr"),
            SpokeConfig {
                retry_interval: Duration::from_millis(10),
                reconnect_window: Duration::from_secs(5),
            },
        )
        .unwrap();
        wait_for(|| !hub.connected().is_empty(), "spoke registered");
        let gen0 = spoke.generation();

        // Simulate the reader having noticed a dead link: take the write
        // half so sends buffer (dropping a cloned fd does not close the
        // connection the reader still holds).
        drop(spoke.inner.state.lock().writer.take());
        for i in 0..5u8 {
            spoke
                .send(&Addr::new("ix"), Bytes::copy_from_slice(&[i]))
                .unwrap();
        }
        assert_eq!(spoke.inner.state.lock().pending.len(), 5);

        // Now actually sever the link: the reader sees EOF, reconnects,
        // re-Hellos, and replays the queue in order.
        assert!(hub.drop_conn(&Addr::new("mgr")));
        for i in 0..5u8 {
            let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.payload[0], i);
        }
        wait_for(|| spoke.generation() > gen0, "generation bump");
        assert!(!spoke.is_closed());
        // The replayed link is live: a direct send arrives too.
        spoke
            .send(&Addr::new("ix"), Bytes::from_static(b"after"))
            .unwrap();
        let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&env.payload[..], b"after");
    }

    #[test]
    fn spoke_gives_up_after_window_and_closes() {
        let hub = hub();
        let spoke = TcpSpoke::connect(
            hub.local_addr(),
            Addr::new("mgr"),
            SpokeConfig {
                retry_interval: Duration::from_millis(10),
                reconnect_window: Duration::from_millis(100),
            },
        )
        .unwrap();
        hub.shutdown();
        // Reconnects are refused (listener gone); the window expires.
        assert!(matches!(spoke.recv(), Err(RecvError::Closed)));
        wait_for(|| spoke.is_closed(), "spoke closed");
        assert!(matches!(
            spoke.send(&Addr::new("ix"), Bytes::from_static(b"x")),
            Err(SendError::SelfClosed)
        ));
    }

    #[test]
    fn oversized_frame_budget_is_reported() {
        let hub = TcpHub::bind_with("127.0.0.1:0", 1024).unwrap();
        assert_eq!(Transport::max_frame_bytes(&hub), 1024);
    }

    #[test]
    fn peek_matches_serde_layout() {
        let frame = wire::to_bytes(&TcpFrame::Data {
            from: "mgr-0".into(),
            to: "ix".into(),
            payload: RawBytes(vec![9, 0x80, 0xff]),
        })
        .unwrap();
        let (from, to, payload) = peek_data_header(&frame).expect("well-formed Data peeks");
        assert_eq!(from, "mgr-0");
        assert_eq!(to, "ix");
        // Bytes >= 0x80 must sit in the frame verbatim (raw-bytes layout,
        // not a per-element varint sequence).
        assert_eq!(&frame[payload], &[9, 0x80, 0xff]);
        // Hello frames don't peek (they take the full-decode path).
        let hello = wire::to_bytes(&TcpFrame::Hello { name: "x".into() }).unwrap();
        assert!(peek_data_header(&hello).is_none());
        // Truncated and padded frames are rejected.
        assert!(peek_data_header(&frame[..frame.len() - 1]).is_none());
        let mut padded = frame.clone();
        padded.push(0);
        assert!(peek_data_header(&padded).is_none());
    }

    /// The hand-written `Data` encoder puts the same bytes on the wire as
    /// the serde derive, at every varint width of the payload length, and
    /// what it writes peeks back as what went in.
    #[test]
    fn data_frame_matches_serde_encoding() {
        let (from, to) = (Addr::new("htex:client"), Addr::new("htex:ix"));
        for len in [0usize, 1, 127, 128, 300, 20_000, 300_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let frame = encode_data_frame(&from, &to, &payload);
            let derived = encode_tcp_frame(&TcpFrame::Data {
                from: from.to_string(),
                to: to.to_string(),
                payload: RawBytes(payload.clone()),
            });
            assert_eq!(frame, derived, "payload of {len} bytes");
            let body = &frame[4..];
            assert_eq!(frame[..4], (body.len() as u32).to_le_bytes());
            let (f, t, range) = peek_data_header(body).expect("peeks as Data");
            assert_eq!((f, t), (from.as_str(), to.as_str()));
            assert_eq!(&body[range], &payload[..]);
        }
    }

    #[test]
    fn hub_relays_spoke_frames_verbatim() {
        let hub = hub();
        // Two raw TCP peers speaking the frame protocol by hand, so we can
        // observe the exact bytes the hub puts on the destination socket.
        let mut a = TcpStream::connect(hub.local_addr()).unwrap();
        a.write_all(&encode_tcp_frame(&TcpFrame::Hello { name: "a".into() }))
            .unwrap();
        let mut b = TcpStream::connect(hub.local_addr()).unwrap();
        b.write_all(&encode_tcp_frame(&TcpFrame::Hello { name: "b".into() }))
            .unwrap();
        wait_for(|| hub.connected().len() == 2, "both raw peers registered");

        let frame = encode_tcp_frame(&TcpFrame::Data {
            from: "a".into(),
            to: "b".into(),
            payload: RawBytes((0..=255u8).collect()),
        });
        a.write_all(&frame).unwrap();

        let mut got = vec![0u8; frame.len()];
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        b.read_exact(&mut got).unwrap();
        assert_eq!(
            got, frame,
            "a relayed frame must arrive byte-identical, prefix included"
        );
        // The counter bumps just after the bytes hit the socket; give the
        // reader thread a beat.
        wait_for(|| hub.relayed_frames() == 1, "routed via the raw path");
    }

    #[test]
    fn spoofed_from_field_kills_the_connection() {
        let hub = hub();
        let ix = hub.attach(Addr::new("ix")).unwrap();
        let mut liar = TcpStream::connect(hub.local_addr()).unwrap();
        liar.write_all(&encode_tcp_frame(&TcpFrame::Hello {
            name: "liar".into(),
        }))
        .unwrap();
        wait_for(|| hub.connected().len() == 1, "liar registered");
        // Forwarding raw frames means the embedded `from` travels as-is,
        // so the hub must refuse a frame claiming someone else's name.
        liar.write_all(&encode_tcp_frame(&TcpFrame::Data {
            from: "honest".into(),
            to: "ix".into(),
            payload: RawBytes(vec![1]),
        }))
        .unwrap();
        wait_for(|| hub.connected().is_empty(), "liar disconnected");
        assert!(ix.try_recv().is_none(), "spoofed frame must not deliver");
    }
}
