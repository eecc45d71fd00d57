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
//! - A [`TcpSpoke`] has no thread of its own: its owner's `recv` reads the
//!   socket on the owner's thread, and the spoke reconnects while its
//!   owner reads it. On link loss the read path retries within a
//!   configured window, never past the caller's deadline, and picks up at
//!   the next call. Outbound frames, sent from any thread through the
//!   spoke's [`Port::send_half`], queue in FIFO order while the link is
//!   down and are flushed — after a fresh `Hello` — before anything
//!   newer, so peer-observed ordering survives the gap. Each reconnect
//!   bumps the spoke's [`Port::generation`], which managers watch to
//!   re-register.
//! - When the window expires the spoke closes; pending sends fail and
//!   `recv` reports `Closed`, so protocol loops exit exactly as they do
//!   when the in-proc fabric kills an endpoint.

use crate::addr::Addr;
use crate::endpoint::{Envelope, Inbox, InboxSender, Waker};
use crate::error::{RecvError, SendError};
use crate::transport::{Port, SendHalf, Transport, TransportError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read buffer size of a socket's reader.
const IO_CHUNK: usize = 64 * 1024;

wire::codec! {
    /// Everything on the wire is one of these, `wire`-encoded inside a
    /// length-prefixed frame.
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
}

/// Payload laid out as a string's body is — a varint length followed by
/// the raw body as one contiguous run — where a `Vec<u8>` would be a
/// per-element varint sequence, in which bytes ≥ 0x80 grow to two bytes
/// and the payload could not be sliced (or relayed) straight out of the
/// frame.
struct RawBytes(Vec<u8>);

impl wire::Encode for RawBytes {
    fn encode(&self, out: &mut Vec<u8>) -> wire::Result<()> {
        wire::encode_raw(&self.0, out);
        Ok(())
    }
}

impl wire::Decode for RawBytes {
    fn decode(r: &mut wire::Reader<'_>) -> wire::Result<Self> {
        Ok(RawBytes(r.raw()?.to_vec()))
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
        wire::Encode::encode(f, out).expect("tcp control frames always encode")
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
            wire::encode_raw(field, out);
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
    local: Mutex<HashMap<Addr, InboxSender>>,
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
        let (tx, inbox) = Inbox::new();
        let mut local = self.inner.local.lock();
        if local.contains_key(&addr) {
            return Err(TransportError(format!("address {addr} already attached")));
        }
        local.insert(addr.clone(), tx);
        drop(local);
        Ok(Box::new(HubPort {
            tx: HubTx {
                addr,
                inner: Arc::clone(&self.inner),
            },
            inbox,
        }))
    }

    fn max_frame_bytes(&self) -> usize {
        self.inner.max_frame_bytes
    }
}

/// A port attached directly to the hub (interchange side).
struct HubPort {
    tx: HubTx,
    inbox: Inbox,
}

/// A hub port's send half.
#[derive(Clone)]
struct HubTx {
    addr: Addr,
    inner: Arc<HubInner>,
}

impl SendHalf for HubTx {
    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.inner.route(&self.addr, to, payload)
    }
}

impl Port for HubPort {
    fn addr(&self) -> &Addr {
        &self.tx.addr
    }

    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.tx.send(to, payload)
    }

    fn send_half(&self) -> Arc<dyn SendHalf> {
        Arc::new(self.tx.clone())
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.inbox.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.inbox.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv()
    }

    fn waker(&self) -> Option<Waker> {
        Some(self.inbox.waker(&self.tx.addr))
    }
}

impl Drop for HubPort {
    fn drop(&mut self) {
        self.tx.inner.local.lock().remove(&self.tx.addr);
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

/// What a spoke's senders share: it is the spoke's send half.
struct SpokeInner {
    name: Addr,
    server: SocketAddr,
    cfg: SpokeConfig,
    closed: AtomicBool,
    generation: AtomicU64,
    state: Mutex<SpokeState>,
}

impl SpokeInner {
    /// Give up for good: sends fail and the reader sees `Closed`.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.drop_writer();
    }

    /// Shut the live connection, if any: sends queue in `pending` until a
    /// reconnect, and a read blocked on the socket returns.
    fn drop_writer(&self) {
        if let Some(w) = self.state.lock().writer.take() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }

    /// One attempt at a new link: connect, send `Hello`, and replay
    /// `pending` in FIFO order under the state lock, so a send from
    /// another thread lands behind the replay. Bumps the generation on
    /// success and returns the new connection's read half.
    fn reconnect(&self) -> Option<TcpStream> {
        let timeout = self.cfg.retry_interval.max(Duration::from_millis(1));
        let stream = TcpStream::connect_timeout(&self.server, timeout).ok()?;
        let _ = stream.set_nodelay(true);
        let hello = encode_tcp_frame(&TcpFrame::Hello {
            name: self.name.to_string(),
        });
        let mut st = self.state.lock();
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        (&stream).write_all(&hello).ok()?;
        while let Some(frame) = st.pending.front() {
            (&stream).write_all(frame).ok()?;
            st.pending.pop_front();
        }
        st.writer = Some(stream.try_clone().ok()?);
        drop(st);
        self.generation.fetch_add(1, Ordering::Release);
        Some(stream)
    }

    /// Read what is already on `stream` without blocking. The write half
    /// shares the socket's non-blocking flag, so no write may run
    /// meanwhile: the state lock is held throughout.
    fn read_now(&self, stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
        let _writes = self.state.lock();
        stream.set_nonblocking(true)?;
        let read = (&*stream).read(buf);
        stream.set_nonblocking(false)?;
        read
    }
}

impl SendHalf for SpokeInner {
    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SendError::SelfClosed);
        }
        let frame = encode_data_frame(&self.name, to, &payload);
        let mut st = self.state.lock();
        if let Some(mut w) = st.writer.as_ref() {
            if w.write_all(&frame).is_ok() {
                return Ok(());
            }
            // Broken mid-write: the torn frame dies with the socket, and
            // the shutdown ends the reader's read, which reconnects.
            if let Some(w) = st.writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        // A clean copy waits for the next link.
        st.pending.push_back(frame);
        Ok(())
    }
}

/// A spoke's read half, which only the port's one reader touches.
struct SpokeReader {
    /// The live connection; `None` while the link is down.
    stream: Option<TcpStream>,
    decoder: wire::StreamDecoder,
    buf: Vec<u8>,
    /// The read timeout last set on `stream`.
    timeout: Option<Duration>,
    /// While the link is down: when the reconnect window closes.
    gives_up: Instant,
    /// While the link is down: when the next connection attempt is due.
    next_try: Instant,
}

impl SpokeReader {
    /// The link is lost: drop the connection and its torn frame, and open
    /// the reconnect window.
    fn lose_link(&mut self, inner: &SpokeInner) {
        self.stream = None;
        self.decoder = wire::StreamDecoder::new();
        inner.drop_writer();
        let now = Instant::now();
        self.gives_up = now + inner.cfg.reconnect_window;
        self.next_try = now;
    }
}

/// The connecting side of the TCP plane: one process's addressed port.
pub struct TcpSpoke {
    inner: Arc<SpokeInner>,
    reader: RefCell<SpokeReader>,
}

impl TcpSpoke {
    /// Connect to a hub at `server` and announce `name`. Fails fast if the
    /// initial connection is refused.
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
        let now = Instant::now();
        let reader = RefCell::new(SpokeReader {
            stream: Some(stream),
            decoder: wire::StreamDecoder::new(),
            buf: vec![0u8; IO_CHUNK],
            timeout: None,
            gives_up: now,
            next_try: now,
        });
        Ok(TcpSpoke { inner, reader })
    }

    /// True once the spoke has given up (window expired or closed).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Close the spoke: pending sends fail and `recv` reports `Closed`.
    pub fn close(&self) {
        self.inner.close();
    }

    /// The next message, waiting until `deadline` (`None`: as long as it
    /// takes). The socket is read here, on the caller's thread, and so a
    /// lost link is noticed, retried and replayed here too.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<Envelope, RecvError> {
        let inner = &*self.inner;
        let mut rd = self.reader.borrow_mut();
        let rd = &mut *rd;
        loop {
            match rd.decoder.next_frame() {
                Ok(Some(frame)) => {
                    // Same header peek as the hub: the payload is sliced
                    // out of the frame buffer, never decoded or copied.
                    // Non-Data frames are ignored.
                    if let Some((from, _, range)) = peek_data_header(&frame) {
                        let from = Addr::new(from);
                        return Ok(Envelope {
                            from,
                            payload: frame.slice(range),
                        });
                    }
                    continue;
                }
                Ok(None) => {}
                // A corrupt stream is a lost link.
                Err(_) => rd.lose_link(inner),
            }
            if inner.closed.load(Ordering::Acquire) {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            let Some(stream) = rd.stream.as_ref() else {
                if now >= rd.gives_up {
                    inner.close();
                    return Err(RecvError::Closed);
                }
                if now >= rd.next_try {
                    rd.next_try = now + inner.cfg.retry_interval;
                    if let Some(stream) = inner.reconnect() {
                        rd.stream = Some(stream);
                        rd.timeout = None;
                        continue;
                    }
                }
                // Wait for the next attempt, but not past the deadline.
                let wake = rd.next_try.min(rd.gives_up);
                match deadline {
                    Some(d) if d < wake => {
                        std::thread::sleep(d.saturating_duration_since(now));
                        return Err(RecvError::Timeout);
                    }
                    _ => std::thread::sleep(wake.saturating_duration_since(now)),
                }
                continue;
            };
            let left = deadline.map(|d| d.saturating_duration_since(now));
            let read = if left == Some(Duration::ZERO) {
                inner.read_now(stream, &mut rd.buf)
            } else {
                // The socket's read timer ticks in jiffies, so rounding up
                // to whole milliseconds loses nothing, and consecutive
                // reads mostly keep the timeout already set.
                let timeout =
                    left.map(|d| Duration::from_millis(d.as_nanos().div_ceil(1_000_000) as u64));
                if rd.timeout != timeout {
                    if stream.set_read_timeout(timeout).is_err() {
                        rd.lose_link(inner);
                        continue;
                    }
                    rd.timeout = timeout;
                }
                (&*stream).read(&mut rd.buf)
            };
            match read {
                Ok(0) => rd.lose_link(inner),
                Ok(n) => rd.decoder.feed(&rd.buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(RecvError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => rd.lose_link(inner),
            }
        }
    }
}

impl Drop for TcpSpoke {
    fn drop(&mut self) {
        self.close();
    }
}

impl Port for TcpSpoke {
    fn addr(&self) -> &Addr {
        &self.inner.name
    }

    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.inner.send(to, payload)
    }

    fn send_half(&self) -> Arc<dyn SendHalf> {
        Arc::clone(&self.inner) as Arc<dyn SendHalf>
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.recv_until(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.recv_until(Some(Instant::now())).ok()
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

        // Now actually sever the link. The spoke's reader sees EOF,
        // reconnects, re-Hellos, and replays the queue in order; nothing
        // reconnects while nobody reads, so the test drives the read path.
        assert!(hub.drop_conn(&Addr::new("mgr")));
        wait_for(
            || {
                let _ = spoke.recv_timeout(Duration::from_millis(20));
                spoke.generation() > gen0
            },
            "generation bump",
        );
        for i in 0..5u8 {
            let env = ix.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.payload[0], i);
        }
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

    /// A spoke whose hub has gone: it connected to a listener of the
    /// test's own, which then closed both the connection and itself, so
    /// every reconnect is refused until something listens at the returned
    /// address again.
    fn orphaned_spoke(cfg: SpokeConfig) -> (TcpSpoke, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let at = listener.local_addr().unwrap();
        let spoke = TcpSpoke::connect(at, Addr::new("mgr"), cfg).unwrap();
        drop(listener.accept().unwrap());
        (spoke, at)
    }

    /// Accept one connection on `listener` and read `n` frames off it.
    fn read_frames(listener: &TcpListener, n: usize) -> (TcpStream, Vec<Bytes>) {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut decoder = wire::StreamDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        while frames.len() < n {
            let got = conn.read(&mut buf).unwrap();
            assert!(got > 0, "the spoke hung up after {} frames", frames.len());
            decoder.feed(&buf[..got]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        (conn, frames)
    }

    /// Frames sent from another thread while the link is down wait in
    /// `pending`; the reconnect writes `Hello` and then replays them in
    /// the order they were sent, and the generation bumps once, however
    /// many attempts were refused first.
    #[test]
    fn frames_sent_while_down_replay_after_hello_in_order() {
        let (spoke, at) = orphaned_spoke(SpokeConfig {
            retry_interval: Duration::from_millis(5),
            reconnect_window: Duration::from_secs(10),
        });
        let gen0 = spoke.generation();
        // The reader notices the loss; every attempt is refused.
        assert!(matches!(
            spoke.recv_timeout(Duration::from_millis(30)),
            Err(RecvError::Timeout)
        ));
        assert!(spoke.inner.state.lock().writer.is_none());
        let half = spoke.send_half();
        std::thread::spawn(move || {
            for i in 0..5u8 {
                half.send(&Addr::new("ix"), Bytes::copy_from_slice(&[i]))
                    .unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(spoke.inner.state.lock().pending.len(), 5);
        assert_eq!(spoke.generation(), gen0, "no attempt has succeeded");

        let listener = TcpListener::bind(at).unwrap();
        wait_for(
            || {
                let _ = spoke.recv_timeout(Duration::from_millis(10));
                spoke.generation() != gen0
            },
            "reconnect",
        );
        let (_conn, frames) = read_frames(&listener, 6);
        match wire::from_bytes::<TcpFrame>(&frames[0]) {
            Ok(TcpFrame::Hello { name }) => assert_eq!(name, "mgr"),
            _ => panic!("the first frame on the new link is not Hello"),
        }
        for (i, frame) in frames[1..].iter().enumerate() {
            let (from, to, payload) = peek_data_header(frame).expect("a Data frame");
            assert_eq!((from, to), ("mgr", "ix"));
            assert_eq!(&frame[payload], &[i as u8]);
        }
        let _ = spoke.recv_timeout(Duration::from_millis(30));
        assert_eq!(spoke.generation(), gen0 + 1);
        assert!(spoke.inner.state.lock().pending.is_empty());
    }

    /// A deadline shorter than the wait for the next attempt ends the
    /// call on time with `Timeout`; the next call resumes the reconnect
    /// where it stood and reads from the new link.
    #[test]
    fn a_short_deadline_times_out_and_the_next_call_reconnects() {
        let (spoke, at) = orphaned_spoke(SpokeConfig {
            retry_interval: Duration::from_millis(300),
            reconnect_window: Duration::from_secs(10),
        });
        let gen0 = spoke.generation();
        let t0 = Instant::now();
        let got = spoke.recv_timeout(Duration::from_millis(30));
        let took = t0.elapsed();
        assert!(matches!(got, Err(RecvError::Timeout)), "{got:?}");
        assert!(
            took >= Duration::from_millis(30) && took < Duration::from_millis(200),
            "a 30 ms deadline returned after {took:?}"
        );

        let listener = TcpListener::bind(at).unwrap();
        let hub_side = std::thread::spawn(move || {
            let (mut conn, frames) = read_frames(&listener, 1);
            assert!(matches!(
                wire::from_bytes::<TcpFrame>(&frames[0]),
                Ok(TcpFrame::Hello { .. })
            ));
            conn.write_all(&encode_data_frame(
                &Addr::new("ix"),
                &Addr::new("mgr"),
                b"back",
            ))
            .unwrap();
            conn
        });
        let env = spoke.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((env.from.as_str(), &env.payload[..]), ("ix", &b"back"[..]));
        assert_eq!(spoke.generation(), gen0 + 1);
        drop(hub_side.join().unwrap());
    }

    /// Calls inside the reconnect window time out; the first once it has
    /// expired returns `Closed`, and so does every later one.
    #[test]
    fn a_spoke_returns_closed_once_the_window_expires() {
        let window = Duration::from_millis(150);
        let (spoke, _) = orphaned_spoke(SpokeConfig {
            retry_interval: Duration::from_millis(10),
            reconnect_window: window,
        });
        let t0 = Instant::now();
        assert!(matches!(
            spoke.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Timeout)
        ));
        assert!(!spoke.is_closed());
        assert!(matches!(
            spoke.recv_timeout(Duration::from_secs(10)),
            Err(RecvError::Closed)
        ));
        let took = t0.elapsed();
        assert!(
            took >= window && took < Duration::from_secs(5),
            "closed after {took:?}"
        );
        assert!(spoke.is_closed());
        assert!(spoke.try_recv().is_none());
        assert!(matches!(
            spoke.recv_timeout(Duration::from_secs(1)),
            Err(RecvError::Closed)
        ));
    }

    #[test]
    fn oversized_frame_budget_is_reported() {
        let hub = TcpHub::bind_with("127.0.0.1:0", 1024).unwrap();
        assert_eq!(Transport::max_frame_bytes(&hub), 1024);
    }

    #[test]
    fn peek_matches_the_codecs_layout() {
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

    /// Both frames, byte for byte as a `parsl-worker` of another build
    /// writes and reads them.
    #[test]
    fn tcp_frames_keep_their_bytes() {
        let hello = wire::to_bytes(&TcpFrame::Hello {
            name: "mgr-0".into(),
        })
        .unwrap();
        assert_eq!(hello, [0, 5, 109, 103, 114, 45, 48]);
        let data = wire::to_bytes(&TcpFrame::Data {
            from: "a".into(),
            to: "ix".into(),
            payload: RawBytes(vec![0, 0x7f, 0x80, 0xff]),
        })
        .unwrap();
        assert_eq!(data, [1, 1, 97, 2, 105, 120, 4, 0, 127, 128, 255]);
        match wire::from_bytes::<TcpFrame>(&hello) {
            Ok(TcpFrame::Hello { name }) => assert_eq!(name, "mgr-0"),
            _ => panic!("not the Hello that went in"),
        }
        match wire::from_bytes::<TcpFrame>(&data) {
            Ok(TcpFrame::Data { from, to, payload }) => {
                assert_eq!((&from[..], &to[..]), ("a", "ix"));
                assert_eq!(payload.0, [0, 0x7f, 0x80, 0xff]);
            }
            _ => panic!("not the Data that went in"),
        }
    }

    proptest::proptest! {
        /// Bytes off a socket never panic the hub: arbitrary ones, and every
        /// prefix and one-byte corruption of a real `Data` frame, decode or
        /// peek to a value or an error.
        #[test]
        fn hostile_frames_never_panic(
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            at in proptest::prelude::any::<usize>(),
            byte in proptest::prelude::any::<u8>(),
        ) {
            let frame = &encode_data_frame(&Addr::new("mgr-1"), &Addr::new("ix"), &payload)[4..];
            let mut corrupt = frame.to_vec();
            corrupt[at % frame.len()] = byte;
            let prefixes = (0..frame.len()).map(|cut| &frame[..cut]);
            for bytes in prefixes.chain([&junk[..], &corrupt[..]]) {
                let _ = wire::from_bytes::<TcpFrame>(bytes);
                let _ = peek_data_header(bytes);
            }
            for cut in 0..frame.len() {
                proptest::prop_assert!(wire::from_bytes::<TcpFrame>(&frame[..cut]).is_err());
                proptest::prop_assert!(peek_data_header(&frame[..cut]).is_none());
            }
        }
    }

    /// The hand-written `Data` encoder puts the same bytes on the wire as
    /// the codec, at every varint width of the payload length, and
    /// what it writes peeks back as what went in.
    #[test]
    fn data_frame_matches_the_codecs_encoding() {
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
