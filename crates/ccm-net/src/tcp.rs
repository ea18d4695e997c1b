//! `TcpLan` — the socket backend of the runtime's [`Transport`] trait.
//!
//! One listener per node on loopback (the per-node address a round-robin
//! DNS would hand out), one lazily established TCP connection per ordered
//! node pair, and the [`crate::wire`] codec in between. The in-process
//! reply channels of [`PeerMsg`] never cross the socket: the sending side
//! parks each reply sender in a per-connection *pending table* keyed by
//! request id, and the node's reactor resolves it when the matching
//! [`WireMsg::BlockReply`] / [`WireMsg::BarrierAck`] comes back.
//!
//! ## Data plane: group-commit frame trains + one reactor per node
//!
//! Senders never write a frame directly. Each connection carries an
//! *outbox* [`FrameTrain`]; a sender pushes its frame under the outbox
//! lock and, if no flush is in progress, becomes the writer: it detaches
//! the staged train and puts it on the wire with one vectored write,
//! looping while more frames accumulate behind it. A single in-flight
//! request therefore writes immediately (no batching delay), while
//! concurrent requests coalesce into one syscall — the classic
//! group-commit shape. Block payloads ride the train as shared
//! `Arc<[u8]>` segments, so an 8 KB block goes from the peer's store to
//! the socket without a copy. [`MAX_TRAIN_BYTES`] bounds the staged
//! backlog: pushers briefly yield instead of growing a train past the cap
//! while the peer is slow, and a writer facing a full socket blocks in
//! `poll(2)` until it drains.
//!
//! The receive side is one *reactor thread per node*, owning the node's
//! nonblocking listener, every inbound connection, and the read half of
//! every outbound connection it dialed. Inbound frames are reassembled
//! ([`FrameAssembler`]) and forwarded to the service inbox; a request that
//! needs a reply parks its reply receiver in the connection's FIFO, so
//! requests stream down one connection *pipelined*. Replies skip the
//! reactor: each reply channel's notify hook makes the thread that
//! completes a reply write the connection's ready replies, in order.
//!
//! The reactor's one blocking point is `poll(2)` over its sockets and a
//! wake socket. Socket bytes wake it by readiness (a writer in another
//! process needs no signal); the wake socket carries what the kernel cannot
//! see — a new connection to watch, a reply train waiting for `POLLOUT`,
//! shutdown — and is written only once the reactor has flagged that it is
//! about to block. After traffic it stays hot for `HOT_WINDOW` (polling
//! without blocking), so back-to-back round trips skip a sleep/wake pair.
//!
//! ## Connection lifecycle
//!
//! * **Lazy connect** — the `src → dst` connection is dialed on first
//!   send. The first frame staged is a [`WireMsg::Hello`] naming the wire
//!   version and the source node (it coalesces with the first request);
//!   the accepting reactor rejects mismatched versions.
//! * **Failure** — a write error, a reactor-side EOF, or a decode error
//!   tears the connection down: the socket is shut down both ways, every
//!   pending reply sender is dropped (waiting requesters observe an
//!   immediate disconnect and fall back to the backing store), and the
//!   link enters backoff.
//! * **Reconnect** — after a teardown the link refuses sends (fail-fast
//!   `false`, the disk-fallback path) until a capped exponential backoff
//!   expires, then the next send dials again.
//! * **Crash/restart** — a crashed node's service thread drops its inbox
//!   receiver; frames demuxed on a connection pinned to that dead
//!   incarnation fail delivery and close the connection, which propagates
//!   the failure to the sending side. [`Transport::reconnect`] (node
//!   restart) installs a fresh inbox and severs every connection to and
//!   from the node — as a reboot would — so stale frames can never leak
//!   into the new incarnation; peers re-dial lazily.
//!
//! ## Deadlines
//!
//! Requests carry no wire-level deadline: the requester's bounded
//! `recv_timeout` in [`Transport::fetch_block`] *is* the deadline, exactly
//! as over the channel LAN (`RtConfig::fetch_timeout`). A request whose
//! connection dies resolves early (disconnect), one whose reply is merely
//! slow resolves at the deadline; both degrade to the §3 disk read.
//!
//! In-process the whole cluster shares one `TcpLan` (every listener plus
//! every outbound link), which is what the tests and the demo binary use;
//! the frame protocol itself carries no process-local state, so a future
//! multi-process deployment only needs a constructor that owns one slot
//! and dials remote addresses.
//!
//! [`Transport`]: ccm_rt::Transport
//! [`Transport::fetch_block`]: ccm_rt::Transport::fetch_block
//! [`Transport::reconnect`]: ccm_rt::Transport::reconnect
//! [`PeerMsg`]: ccm_rt::PeerMsg

use crate::wire::{FrameAssembler, FrameTrain, WireMsg, WIRE_VERSION};
use ccm_core::{BlockId, NodeId};
use ccm_obs::{Counter, Gauge, Registry};
use ccm_rt::{PeerMsg, Transport};
use simcore::chan::{notified, unbounded, Notify, Receiver, Sender, TryRecvError};
use simcore::sync::{Mutex, RwLock};
use simcore::FxHashMap;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Staged-outbox ceiling per connection: once a train holds this many
/// bytes while a flush is in progress, further pushers yield until the
/// writer drains it (bounded memory under a slow peer).
pub const MAX_TRAIN_BYTES: usize = 256 * 1024;
/// Per-attempt dial timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Backoff after the first failure on a link; doubles per consecutive
/// failure up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Wire/connection counters (diagnostics; monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Outbound connections successfully established (incl. re-dials).
    pub connects: u64,
    /// Dial attempts that failed.
    pub connect_failures: u64,
    /// Established connections torn down (error, EOF, or node restart).
    pub teardowns: u64,
    /// Frames handed to sockets (requests, forwards, invalidates, barriers,
    /// hellos, and replies). Credited just before the write that carries
    /// them, so a reader can never count a frame in before its writer
    /// counted it out.
    pub frames_sent: u64,
    /// Frames delivered to service inboxes or pending tables.
    pub frames_received: u64,
    /// Frame trains handed to sockets — each is one vectored-write batch,
    /// so `frames_sent / trains_sent` is the realized coalescing factor.
    pub trains_sent: u64,
}

/// Per-directed-pair wire metric handles. Traffic metrics count at the
/// end that observes them — `frames_out`/`bytes_out` at the writing node,
/// `frames_in`/`bytes_in` at the reading node — so for a healthy link the
/// `{src,dst}` series converge from both sides. The connection-shaped
/// metrics (dials, teardowns, pending depth, backoff, degrades) live on
/// the pair as dialed, `src → dst`.
struct LinkObs {
    frames_out: Counter,
    bytes_out: Counter,
    frames_in: Counter,
    bytes_in: Counter,
    dials: Counter,
    dial_failures: Counter,
    teardowns: Counter,
    /// Sends refused or failed on this link; each one degrades the caller
    /// to the §3 backing-store read.
    degrades: Counter,
    pending_replies: Gauge,
    backoff_ms: Gauge,
}

/// All per-pair handles, registered once at construction so the data path
/// never touches the registry.
struct NetObs {
    /// Row-major `from * nodes + to`; `None` on the diagonal (self-sends
    /// short-circuit the wire entirely).
    links: Vec<Option<LinkObs>>,
    nodes: usize,
}

impl NetObs {
    fn new(registry: &Registry, nodes: usize) -> NetObs {
        let link = |from: usize, to: usize| {
            let (f, t) = (from.to_string(), to.to_string());
            let l = [("src", f.as_str()), ("dst", t.as_str())];
            let counter = |name, help| registry.counter(name, help, &l);
            let gauge = |name, help| registry.gauge(name, help, &l);
            LinkObs {
                frames_out: counter(
                    "ccm_net_frames_out_total",
                    "Wire frames written, by direction",
                ),
                bytes_out: counter(
                    "ccm_net_bytes_out_total",
                    "Wire bytes written (length prefixes included), by direction",
                ),
                frames_in: counter("ccm_net_frames_in_total", "Wire frames read, by direction"),
                bytes_in: counter(
                    "ccm_net_bytes_in_total",
                    "Wire bytes read (length prefixes included), by direction",
                ),
                dials: counter("ccm_net_dials_total", "Dial attempts on this link"),
                dial_failures: counter("ccm_net_dial_failures_total", "Dial attempts that failed"),
                teardowns: counter(
                    "ccm_net_teardowns_total",
                    "Established connections torn down (error, EOF, or restart)",
                ),
                degrades: counter(
                    "ccm_net_degrades_total",
                    "Sends refused or failed on this link (caller degrades to the backing store)",
                ),
                pending_replies: gauge(
                    "ccm_net_pending_replies",
                    "Requests awaiting a wire reply on this link",
                ),
                backoff_ms: gauge(
                    "ccm_net_backoff_ms",
                    "Reconnect backoff being served (0 while the link is healthy)",
                ),
            }
        };
        let links = (0..nodes * nodes)
            .map(|i| (i / nodes != i % nodes).then(|| link(i / nodes, i % nodes)))
            .collect();
        NetObs { links, nodes }
    }

    fn pair(&self, from: NodeId, to: NodeId) -> &LinkObs {
        self.links[from.index() * self.nodes + to.index()]
            .as_ref()
            .expect("the wire never carries self-sends")
    }
}

/// What a reply correlates back to.
enum Pending {
    Block(Sender<Option<Arc<[u8]>>>),
    Barrier(Sender<()>),
}

/// The per-connection table of outstanding requests. Once the connection
/// fails its table is *closed*; a sender that loses the race and tries to
/// register afterwards is refused, so no entry can ever be orphaned to
/// sit out its full timeout.
#[derive(Default)]
struct PendingMap {
    closed: AtomicBool,
    map: Mutex<FxHashMap<u64, Pending>>,
}

impl PendingMap {
    /// Register an outstanding request; false if the connection already
    /// failed (the caller must treat the send as failed).
    fn insert(&self, req_id: u64, p: Pending) -> bool {
        let mut m = self.map.lock();
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        m.insert(req_id, p);
        true
    }

    fn remove(&self, req_id: u64) -> Option<Pending> {
        self.map.lock().remove(&req_id)
    }

    /// Refuse future registrations and drop every waiter (each observes an
    /// immediate disconnect rather than a timeout). Returns how many
    /// waiters were dropped so the caller can settle the pending gauge.
    fn close(&self) -> usize {
        let mut m = self.map.lock();
        self.closed.store(true, Ordering::Release);
        let dropped = m.len();
        m.clear();
        dropped
    }
}

type PendingTable = Arc<PendingMap>;

/// The staged frames of one connection, plus the group-commit state.
#[derive(Default)]
struct Outbox {
    train: FrameTrain,
    /// A thread is currently flushing; pushers just stage and return.
    writing: bool,
    /// The connection failed; stage nothing more.
    dead: bool,
}

/// An established outbound connection. The socket is nonblocking; the
/// dialing side writes trains through `outbox`, the dialer's reactor reads
/// replies from the same socket.
struct Conn {
    sock: TcpStream,
    pending: PendingTable,
    outbox: Mutex<Outbox>,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            pending: Arc::default(),
            outbox: Mutex::default(),
        }
    }

    /// Stop the data plane on this connection: refuse further staging and
    /// shut the socket down so the reactor (and any peer) observes it.
    fn kill(&self) {
        self.outbox.lock().dead = true;
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// One directed link `src → dst`.
struct Link {
    conn: Option<Arc<Conn>>,
    backoff: Duration,
    /// Sends before this instant fail fast (the link is in backoff).
    retry_at: Option<Instant>,
}

struct NodeSlot {
    addr: SocketAddr,
    /// The current inbox incarnation. The reactor pins a clone per inbound
    /// connection at handshake time, so frames for a dead incarnation can
    /// never reach a restarted node.
    inbox: RwLock<Sender<PeerMsg>>,
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

impl PollFd {
    fn new(sock: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: sock.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// Block until some entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). Returns how many entries are ready; an interrupted
/// wait reports 0 and the caller simply re-polls.
fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    // Round up: a sub-millisecond deadline must not become a busy loop.
    let ms = timeout.map_or(-1, |t| {
        t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
    });
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`s.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    n.max(0) as usize
}

/// A reactor's mailbox: connections it should start watching, and the
/// wake socket that interrupts its `poll`.
struct Mailbox {
    /// Outbound connections this node dialed, awaiting adoption.
    watch: Mutex<Vec<(NodeId, Arc<Conn>)>>,
    /// Write end of the wake socket; the read end sits in the poll set.
    wake_tx: UnixStream,
    /// The reactor is blocking (or about to block) in `poll`.
    parked: AtomicBool,
    /// Something changed the reactor's poll set since its last pass.
    kicked: AtomicBool,
}

impl Mailbox {
    /// Make the reactor rebuild its poll set. The byte is written only if
    /// the reactor announced it is about to block: it re-checks `kicked`
    /// after raising `parked`, so one of the two always sees the other.
    fn wake(&self) {
        self.kicked.store(true, Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

struct TcpShared {
    slots: Vec<NodeSlot>,
    /// Row-major `src * nodes + dst`.
    links: Vec<Mutex<Link>>,
    /// Per-node reactor mailboxes (index = node).
    mailboxes: Vec<Mailbox>,
    next_req: AtomicU64,
    stop: AtomicBool,
    connects: AtomicU64,
    connect_failures: AtomicU64,
    teardowns: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    trains_sent: AtomicU64,
    obs: NetObs,
}

impl TcpShared {
    fn link(&self, src: NodeId, dst: NodeId) -> &Mutex<Link> {
        &self.links[src.index() * self.slots.len() + dst.index()]
    }

    fn local_deliver(&self, dst: NodeId, msg: PeerMsg) -> bool {
        self.slots[dst.index()].inbox.read().send(msg).is_ok()
    }

    /// Credit `frames`/`bytes` as one train written `src → dst`. Called
    /// before the write, so the peer cannot count them in first.
    fn credit_out(&self, src: NodeId, dst: NodeId, frames: u64, bytes: u64) {
        self.frames_sent.fetch_add(frames, Ordering::Relaxed);
        self.trains_sent.fetch_add(1, Ordering::Relaxed);
        let o = self.obs.pair(src, dst);
        o.frames_out.add(frames);
        o.bytes_out.add(bytes);
    }

    /// Tear an established connection down and arm the backoff. No-op if
    /// `pending` is not the link's current connection (a stale notice from
    /// an old connection must not kill its successor).
    fn teardown(&self, src: NodeId, dst: NodeId, pending: &PendingTable) {
        let mut link = self.link(src, dst).lock();
        let is_current = link
            .conn
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(&c.pending, pending));
        if is_current {
            if let Some(conn) = link.conn.take() {
                conn.kill(); // the reactor sees the shutdown and unwatches
            }
            link.retry_at = Some(Instant::now() + link.backoff);
            let o = self.obs.pair(src, dst);
            o.teardowns.inc();
            o.backoff_ms.set(link.backoff.as_millis() as i64);
            link.backoff = (link.backoff * 2).min(MAX_BACKOFF);
            self.teardowns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Fail a connection outright: stop its data plane, drop every pending
/// waiter (immediate disconnect, not timeout), settle the pending gauge,
/// and put the link into backoff if this is still its current connection.
fn conn_failed(shared: &TcpShared, src: NodeId, dst: NodeId, conn: &Arc<Conn>) {
    conn.kill();
    // Count the teardown *before* failing the waiters: a fetch that wakes
    // on the degrade path must already find its cause in the wire
    // counters.
    shared.teardown(src, dst, &conn.pending);
    let dropped = conn.pending.close();
    if dropped > 0 {
        shared
            .obs
            .pair(src, dst)
            .pending_replies
            .adjust(-(dropped as i64));
    }
}

/// Stage `frames` on the connection's outbox as one unit and make sure
/// somebody flushes them: if a writer is already active they ride its next
/// batch (group commit); otherwise the caller becomes the writer and
/// flushes staged trains until the outbox runs dry. A multi-frame stage is
/// the pipelined-fetch path — the whole batch lands in one train, one
/// vectored write. Returns false when the connection is (or goes) dead.
fn pump_frames(
    shared: &TcpShared,
    src: NodeId,
    dst: NodeId,
    conn: &Arc<Conn>,
    frames: &[WireMsg],
) -> bool {
    let cap = MAX_TRAIN_BYTES as u64;
    let mut ob = conn.outbox.lock();
    if ob.dead {
        return false;
    }
    // Backpressure: while a slow flush is in progress, don't grow the
    // staged train past the cap — wait for the writer to drain it.
    while ob.writing && ob.train.bytes() >= cap {
        drop(ob);
        std::thread::yield_now();
        ob = conn.outbox.lock();
        if ob.dead {
            return false;
        }
    }
    for frame in frames {
        ob.train.push(frame);
    }
    if ob.writing {
        return true; // the active writer flushes our frame with its batch
    }
    ob.writing = true;
    loop {
        let mut train = ob.train.take();
        drop(ob);
        shared.credit_out(src, dst, train.frames(), train.bytes());
        // Block in `poll` while the socket is full: the peer's reactor
        // always drains, and a kill's shutdown ends the wait.
        let written = loop {
            match train.write_some(&mut &conn.sock) {
                Ok(false) if !conn.outbox.lock().dead => {
                    poll_fds(&mut [PollFd::new(&conn.sock, POLLOUT)], None);
                }
                done => break matches!(done, Ok(true)),
            }
        };
        if !written {
            conn_failed(shared, src, dst, conn);
            conn.outbox.lock().writing = false;
            return false;
        }
        ob = conn.outbox.lock();
        if ob.dead || ob.train.is_empty() {
            ob.writing = false;
            // Our frame was flushed either way; a dead connection only
            // matters to whoever staged *after* the failure.
            return true;
        }
    }
}

/// The socket LAN. Construct with [`TcpLan::loopback`], hand it to
/// `Middleware::start_on`, and the cluster's peer traffic runs over real
/// TCP connections.
pub struct TcpLan {
    shared: Arc<TcpShared>,
    reactors: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpLan {
    /// Bind `nodes` listeners on loopback ephemeral ports.
    ///
    /// # Errors
    /// Any socket error while binding or spawning reactors.
    pub fn loopback(nodes: usize) -> std::io::Result<TcpLan> {
        // A private registry: the counters still count (NetStats reads
        // them through the same handles), the series just go nowhere.
        TcpLan::loopback_obs(nodes, &Registry::default())
    }

    /// [`TcpLan::loopback`], registering per-link wire metrics
    /// (`ccm_net_*`) on `registry`. Pass the same registry through
    /// `RtConfig::obs` and every layer's series land in one snapshot.
    ///
    /// # Errors
    /// Any socket error while binding or spawning reactors.
    pub fn loopback_obs(nodes: usize, registry: &Registry) -> std::io::Result<TcpLan> {
        let mut listeners = Vec::with_capacity(nodes);
        let mut slots = Vec::with_capacity(nodes);
        let mut wake_rxs = Vec::with_capacity(nodes);
        let mut mailboxes = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;
            listeners.push(listener);
            // Dummy incarnation: dead until `reconnect` installs a real
            // inbox (Middleware::start_on does, for every node).
            let (tx, _) = unbounded();
            slots.push(NodeSlot {
                addr,
                inbox: RwLock::new(tx),
            });
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            wake_rxs.push(wake_rx);
            mailboxes.push(Mailbox {
                watch: Mutex::new(Vec::new()),
                wake_tx,
                parked: AtomicBool::new(false),
                kicked: AtomicBool::new(false),
            });
        }
        let shared = Arc::new(TcpShared {
            slots,
            links: (0..nodes * nodes)
                .map(|_| {
                    Mutex::new(Link {
                        conn: None,
                        backoff: INITIAL_BACKOFF,
                        retry_at: None,
                    })
                })
                .collect(),
            mailboxes,
            next_req: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
            teardowns: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            trains_sent: AtomicU64::new(0),
            obs: NetObs::new(registry, nodes),
        });
        let reactors = listeners
            .into_iter()
            .zip(wake_rxs)
            .enumerate()
            .map(|(i, (listener, wake_rx))| {
                let shared = shared.clone();
                let node = NodeId(i as u16);
                std::thread::Builder::new()
                    .name(format!("ccm-net-reactor-{i}"))
                    .spawn(move || reactor_loop(shared, node, listener, wake_rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(TcpLan {
            shared,
            reactors: Mutex::new(reactors),
        })
    }

    /// The listen address of `node`.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn addr(&self, node: NodeId) -> SocketAddr {
        self.shared.slots[node.index()].addr
    }

    /// Connection and frame counters so far.
    pub fn net_stats(&self) -> NetStats {
        let s = &self.shared;
        NetStats {
            connects: s.connects.load(Ordering::Relaxed),
            connect_failures: s.connect_failures.load(Ordering::Relaxed),
            teardowns: s.teardowns.load(Ordering::Relaxed),
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            trains_sent: s.trains_sent.load(Ordering::Relaxed),
        }
    }

    /// Ensure `src → dst` has a live connection, dialing if allowed.
    /// Returns `None` while the link is in backoff or the dial fails.
    fn ensure_conn(&self, link: &mut Link, src: NodeId, dst: NodeId) -> Option<Arc<Conn>> {
        if let Some(conn) = &link.conn {
            return Some(conn.clone());
        }
        if self.shared.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(at) = link.retry_at {
            if Instant::now() < at {
                return None; // fail fast: the caller degrades to disk
            }
        }
        let addr = self.shared.slots[dst.index()].addr;
        let obs = self.shared.obs.pair(src, dst);
        obs.dials.inc();
        let dial = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).and_then(|sock| {
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            Ok(sock)
        });
        let Ok(sock) = dial else {
            self.shared.connect_failures.fetch_add(1, Ordering::Relaxed);
            obs.dial_failures.inc();
            obs.backoff_ms.set(link.backoff.as_millis() as i64);
            link.retry_at = Some(Instant::now() + link.backoff);
            link.backoff = (link.backoff * 2).min(MAX_BACKOFF);
            return None;
        };
        let conn = Arc::new(Conn::new(sock));
        // The Hello is staged, not written: it coalesces into the same
        // train as the first request, and `pump_frames` flushes them together.
        conn.outbox.lock().train.push(&WireMsg::Hello {
            version: WIRE_VERSION,
            node: src,
        });
        // Hand the read half to our reactor for reply demux.
        let mailbox = &self.shared.mailboxes[src.index()];
        mailbox.watch.lock().push((dst, conn.clone()));
        mailbox.wake();
        self.shared.connects.fetch_add(1, Ordering::Relaxed);
        obs.backoff_ms.set(0);
        link.conn = Some(conn.clone());
        link.backoff = INITIAL_BACKOFF;
        link.retry_at = None;
        Some(conn)
    }

    /// Encode `msg` as a frame, register a pending-table entry for
    /// reply-bearing messages, and stage it on the link's group-commit
    /// outbox. Returns false (after teardown) on any failure.
    fn send_wire(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        let obs = self.shared.obs.pair(src, dst);
        let mut link = self.shared.link(src, dst).lock();
        let Some(conn) = self.ensure_conn(&mut link, src, dst) else {
            obs.degrades.inc();
            return false;
        };
        drop(link);
        // Register reply correlation before the frame can hit the wire; a
        // closed table means the connection died under us.
        let correlate = |pending: Pending| -> Option<u64> {
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            if !conn.pending.insert(req_id, pending) {
                return None;
            }
            obs.pending_replies.adjust(1);
            Some(req_id)
        };
        let frame = match msg {
            PeerMsg::BlockRequest { block, reply } => correlate(Pending::Block(reply))
                .map(|req_id| WireMsg::BlockRequest { req_id, block }),
            PeerMsg::Forward {
                block,
                data,
                displace,
            } => Some(WireMsg::Forward {
                block,
                data,
                displace,
            }),
            PeerMsg::Invalidate { block } => Some(WireMsg::Invalidate { block }),
            PeerMsg::WriteInvalidate { block, version } => {
                Some(WireMsg::WriteInvalidate { block, version })
            }
            PeerMsg::Barrier { reply } => {
                correlate(Pending::Barrier(reply)).map(|req_id| WireMsg::Barrier { req_id })
            }
            // A pong correlates exactly like a barrier ack: unit reply.
            PeerMsg::Ping { reply } => {
                correlate(Pending::Barrier(reply)).map(|req_id| WireMsg::Ping { req_id })
            }
            // Control-plane; `send` routes it locally before we get here.
            PeerMsg::Shutdown => unreachable!("Shutdown never crosses the wire"),
        };
        let Some(frame) = frame else {
            obs.degrades.inc();
            conn_failed(&self.shared, src, dst, &conn);
            return false;
        };
        // On failure the pending entry (if any) died with the table.
        let sent = pump_frames(&self.shared, src, dst, &conn, &[frame]);
        if !sent {
            obs.degrades.inc();
        }
        sent
    }
}

impl Transport for TcpLan {
    fn nodes(&self) -> usize {
        self.shared.slots.len()
    }

    fn send(&self, src: NodeId, dst: NodeId, msg: PeerMsg) -> bool {
        // Shutdown is control-plane (it stops the local service thread);
        // self-sends short-circuit the wire the way a kernel loops back a
        // socket to itself.
        if src == dst || matches!(msg, PeerMsg::Shutdown) {
            return self.shared.local_deliver(dst, msg);
        }
        self.send_wire(src, dst, msg)
    }

    /// Pipelined fetch: every request in the batch goes into flight before
    /// the first reply is awaited. The requests stage as one frame train
    /// (one vectored write when the link is quiet), the peer's service
    /// thread drains them back to back, and its replies leave in reply
    /// trains — so the per-trip wakeup chain is paid once per batch instead
    /// of once per block.
    fn fetch_blocks(
        &self,
        src: NodeId,
        holder: NodeId,
        blocks: &[BlockId],
        timeout: Duration,
    ) -> Vec<Option<Arc<[u8]>>> {
        if src == holder || blocks.len() < 2 {
            // Local fetches never touch the wire; a single fetch gains
            // nothing from the batch plumbing.
            let deadline = Instant::now() + timeout;
            return blocks
                .iter()
                .map(|&b| {
                    let left = deadline.saturating_duration_since(Instant::now());
                    self.fetch_block(src, holder, b, left)
                })
                .collect();
        }
        let obs = self.shared.obs.pair(src, holder);
        let mut link = self.shared.link(src, holder).lock();
        let Some(conn) = self.ensure_conn(&mut link, src, holder) else {
            obs.degrades.inc();
            return vec![None; blocks.len()];
        };
        drop(link);
        let mut frames = Vec::with_capacity(blocks.len());
        let mut rxs = Vec::with_capacity(blocks.len());
        let mut died = false;
        for &block in blocks {
            let (tx, rx) = unbounded();
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            if !conn.pending.insert(req_id, Pending::Block(tx)) {
                died = true; // connection failed mid-registration
                break;
            }
            obs.pending_replies.adjust(1);
            frames.push(WireMsg::BlockRequest { req_id, block });
            rxs.push(rx);
        }
        if died {
            obs.degrades.inc();
            conn_failed(&self.shared, src, holder, &conn);
        } else if !pump_frames(&self.shared, src, holder, &conn, &frames) {
            // The registered entries died with the connection's pending
            // table; their receivers resolve as immediate disconnects.
            obs.degrades.inc();
        }
        let deadline = Instant::now() + timeout;
        let mut out: Vec<Option<Arc<[u8]>>> = rxs
            .into_iter()
            .map(|rx| {
                let left = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(left).ok().flatten()
            })
            .collect();
        out.resize(blocks.len(), None);
        out
    }

    fn reconnect(&self, node: NodeId) -> Receiver<PeerMsg> {
        // A reboot severs the node's TCP connections in both directions.
        // Killing each Conn shuts its socket down, so both reactors
        // observe the failure and unwatch; links are re-armed for an
        // immediate dial (the listener is already back up).
        let n = self.shared.slots.len();
        for other in 0..n {
            for (src, dst) in [(node.index(), other), (other, node.index())] {
                if src == dst {
                    continue;
                }
                let mut link = self.shared.links[src * n + dst].lock();
                let pair = self.shared.obs.pair(NodeId(src as u16), NodeId(dst as u16));
                if let Some(conn) = link.conn.take() {
                    conn.kill();
                    self.shared.teardowns.fetch_add(1, Ordering::Relaxed);
                    pair.teardowns.inc();
                }
                link.backoff = INITIAL_BACKOFF;
                link.retry_at = None;
                pair.backoff_ms.set(0);
            }
        }
        let (tx, rx) = unbounded();
        *self.shared.slots[node.index()].inbox.write() = tx;
        rx
    }

    fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // One wire barrier per live inbound connection: each ack proves
        // that connection's earlier frames were demuxed and processed. The
        // local barrier covers locally delivered messages and makes the
        // whole call fail when the node is down.
        let mut acks = Vec::new();
        for src in 0..self.shared.slots.len() {
            let src = NodeId(src as u16);
            if src == node {
                continue;
            }
            let Some(conn) = self.shared.link(src, node).lock().conn.clone() else {
                continue; // never connected or torn down
            };
            let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = unbounded();
            if !conn.pending.insert(req_id, Pending::Barrier(tx)) {
                continue; // connection just died; its frames died with it
            }
            let obs = self.shared.obs.pair(src, node);
            obs.pending_replies.adjust(1);
            if pump_frames(
                &self.shared,
                src,
                node,
                &conn,
                &[WireMsg::Barrier { req_id }],
            ) {
                acks.push(rx);
            }
            // On failure the link died: its in-flight frames are lost with
            // it, so there is nothing left to wait for.
        }
        let (tx, rx) = unbounded();
        if !self
            .shared
            .local_deliver(node, PeerMsg::Barrier { reply: tx })
        {
            return false;
        }
        acks.push(rx);
        acks.into_iter().all(|rx| {
            let left = deadline.saturating_duration_since(Instant::now());
            rx.recv_timeout(left).is_ok()
        })
    }
}

impl Drop for TcpLan {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Killing every outbound connection unblocks stuck writers and
        // lets each reactor observe the teardown; the wake socket breaks
        // each reactor out of `poll` to see `stop` at once.
        for link in &self.shared.links {
            if let Some(conn) = link.lock().conn.take() {
                conn.kill();
            }
        }
        for mailbox in &self.shared.mailboxes {
            mailbox.wake();
        }
        for r in self.reactors.lock().drain(..) {
            let _ = r.join();
        }
    }
}

/// How long an accepted connection may sit silent before its Hello.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);
/// Reads per connection per reactor pass (fairness bound).
const READS_PER_PASS: usize = 8;
/// Bytes per read call into a connection's assembler.
const READ_CHUNK: usize = 64 * 1024;
/// How long a reactor keeps polling without blocking (yielding between
/// polls) after its last socket event. A round trip's next frame usually
/// lands well inside it, and catching it hot skips a sleep/wake pair.
const HOT_WINDOW: Duration = Duration::from_micros(50);

/// Read what `sock` holds into `asm`, bounded for fairness. False at EOF
/// or on a socket error.
fn fill(asm: &mut FrameAssembler, mut sock: &TcpStream) -> bool {
    for _ in 0..READS_PER_PASS {
        match asm.read_from(&mut sock, READ_CHUNK) {
            Ok(0) => return false,
            Ok(n) if n < READ_CHUNK => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// A reply owed to an inbound connection, in request order.
enum ReplyWait {
    Block {
        req_id: u64,
        rx: Receiver<Option<Arc<[u8]>>>,
    },
    Ack {
        req_id: u64,
        pong: bool,
        rx: Receiver<()>,
    },
}

/// The reply side of an inbound connection, shared by the reactor (which
/// registers waits as requests arrive and resumes a flush the socket cut
/// short) and by whichever thread completes a reply (through the reply
/// channel's notify hook).
struct Replies {
    /// The connection's socket (a duplicate of the reactor's handle).
    sock: TcpStream,
    shared: Arc<TcpShared>,
    node: NodeId,
    src: NodeId,
    state: Mutex<ReplyState>,
    /// A reply train is partly flushed: the reactor watches for `POLLOUT`.
    want_write: AtomicBool,
}

#[derive(Default)]
struct ReplyState {
    /// Replies owed, FIFO: the service thread answers its inbox in order,
    /// so only the front can become ready next — harvesting the front
    /// preserves the peer's reply order while requests stream in
    /// pipelined.
    waits: VecDeque<ReplyWait>,
    /// Outgoing reply train (persistent; partial flushes resume).
    train: FrameTrain,
}

impl Replies {
    /// Move every ready reply, in request order, onto the reply train and
    /// write as much of it as the socket takes.
    fn flush(&self) {
        let mut st = self.state.lock();
        let (mut frames, mut bytes) = (0, 0);
        while let Some(front) = st.waits.front() {
            let frame = match front {
                ReplyWait::Block { req_id, rx } => match rx.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    // A node that crashed before answering (disconnect)
                    // gives the requester an explicit miss, not a timeout.
                    got => WireMsg::BlockReply {
                        req_id: *req_id,
                        data: got.ok().flatten(),
                    },
                },
                ReplyWait::Ack { req_id, pong, rx } => match rx.try_recv() {
                    Ok(()) if *pong => WireMsg::Pong { req_id: *req_id },
                    Ok(()) => WireMsg::BarrierAck { req_id: *req_id },
                    // Node died mid-barrier/ping: no ack. Kill the
                    // connection and let the requester time out (matches
                    // the channel backend).
                    Err(TryRecvError::Disconnected) => {
                        let _ = self.sock.shutdown(Shutdown::Both);
                        return;
                    }
                    Err(TryRecvError::Empty) => break,
                },
            };
            bytes += st.train.push(&frame) as u64;
            frames += 1;
            st.waits.pop_front();
        }
        if frames > 0 {
            self.shared.credit_out(self.node, self.src, frames, bytes);
        }
        let done = st.train.is_empty()
            || st.train.write_some(&mut &self.sock).unwrap_or_else(|_| {
                // The reactor sees the hangup and drops the connection.
                let _ = self.sock.shutdown(Shutdown::Both);
                true
            });
        if done {
            self.want_write.store(false, Ordering::Release);
        } else if !self.want_write.swap(true, Ordering::AcqRel) {
            self.shared.mailboxes[self.node.index()].wake();
        }
    }
}

/// What a valid Hello establishes on an inbound connection.
struct Peer {
    /// Inbox incarnation pinned at Hello time: frames from a connection
    /// established before a crash die with the old incarnation.
    inbox: Sender<PeerMsg>,
    replies: Arc<Replies>,
    /// Hook for this connection's reply channels: flush on completion.
    notify: Notify,
}

/// One accepted (inbound) connection being served by a reactor.
struct InConn {
    sock: TcpStream,
    asm: FrameAssembler,
    /// Set by a valid Hello.
    peer: Option<Peer>,
    deadline: Instant,
}

impl InConn {
    fn new(sock: TcpStream) -> InConn {
        InConn {
            sock,
            asm: FrameAssembler::new(),
            peer: None,
            deadline: Instant::now() + HELLO_DEADLINE,
        }
    }

    /// Handle one poll result: read + demux on any input event, resume a
    /// partial reply flush on `POLLOUT`. Returns false when the connection
    /// must be dropped.
    fn service(&mut self, shared: &Arc<TcpShared>, node: NodeId, revents: i16) -> bool {
        if revents & POLLOUT != 0 {
            if let Some(p) = &self.peer {
                p.replies.flush();
            }
        }
        if revents & !POLLOUT != 0 && !self.read(shared, node) {
            return false;
        }
        // A silent connection must say Hello in time.
        self.peer.is_some() || Instant::now() < self.deadline
    }

    /// Read what the socket has and deliver every complete frame.
    fn read(&mut self, shared: &Arc<TcpShared>, node: NodeId) -> bool {
        if !fill(&mut self.asm, &self.sock) {
            return false;
        }
        let mut owed = false;
        loop {
            let (frame, nbytes) = match self.asm.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return false, // corrupt stream
            };
            let Some(peer) = &self.peer else {
                // First frame must be a valid Hello from a real peer.
                match frame {
                    WireMsg::Hello { version, node: src }
                        if version == WIRE_VERSION
                            && src.index() < shared.slots.len()
                            && src != node =>
                    {
                        shared.frames_received.fetch_add(1, Ordering::Relaxed);
                        let in_obs = shared.obs.pair(src, node);
                        in_obs.frames_in.inc();
                        in_obs.bytes_in.add(nbytes);
                        let Ok(sock) = self.sock.try_clone() else {
                            return false;
                        };
                        let replies = Arc::new(Replies {
                            sock,
                            shared: shared.clone(),
                            node,
                            src,
                            state: Mutex::default(),
                            want_write: AtomicBool::new(false),
                        });
                        let weak = Arc::downgrade(&replies);
                        self.peer = Some(Peer {
                            inbox: shared.slots[node.index()].inbox.read().clone(),
                            replies,
                            notify: Arc::new(move || {
                                if let Some(r) = weak.upgrade() {
                                    r.flush();
                                }
                            }),
                        });
                        continue;
                    }
                    _ => return false, // wrong protocol/version/self-dial
                }
            };
            shared.frames_received.fetch_add(1, Ordering::Relaxed);
            let in_obs = shared.obs.pair(peer.replies.src, node);
            in_obs.frames_in.inc();
            in_obs.bytes_in.add(nbytes);
            let (msg, wait) = match frame {
                WireMsg::BlockRequest { req_id, block } => {
                    let (tx, rx) = notified(peer.notify.clone());
                    let wait = ReplyWait::Block { req_id, rx };
                    (PeerMsg::BlockRequest { block, reply: tx }, Some(wait))
                }
                WireMsg::Forward {
                    block,
                    data,
                    displace,
                } => (
                    PeerMsg::Forward {
                        block,
                        data,
                        displace,
                    },
                    None,
                ),
                WireMsg::Invalidate { block } => (PeerMsg::Invalidate { block }, None),
                WireMsg::WriteInvalidate { block, version } => {
                    (PeerMsg::WriteInvalidate { block, version }, None)
                }
                WireMsg::Barrier { req_id } | WireMsg::Ping { req_id } => {
                    let pong = matches!(frame, WireMsg::Ping { .. });
                    let (tx, rx) = notified(peer.notify.clone());
                    let msg = if pong {
                        PeerMsg::Ping { reply: tx }
                    } else {
                        PeerMsg::Barrier { reply: tx }
                    };
                    (msg, Some(ReplyWait::Ack { req_id, pong, rx }))
                }
                // Requests travel src → dst only; a reply or second Hello
                // on an inbound connection is protocol corruption.
                WireMsg::Hello { .. }
                | WireMsg::BlockReply { .. }
                | WireMsg::BarrierAck { .. }
                | WireMsg::Pong { .. } => return false,
            };
            if peer.inbox.send(msg).is_err() {
                return false; // dead incarnation: kill conn
            }
            if let Some(wait) = wait {
                peer.replies.state.lock().waits.push_back(wait);
                owed = true;
            }
        }
        // A reply that completed before its wait was registered found
        // nothing to flush; pick it up now.
        if let (true, Some(peer)) = (owed, &self.peer) {
            peer.replies.flush();
        }
        true
    }
}

impl Drop for InConn {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

/// The read half of an outbound connection a node dialed: replies come
/// back here and resolve the pending table.
struct OutWatch {
    dst: NodeId,
    conn: Arc<Conn>,
    asm: FrameAssembler,
}

impl OutWatch {
    /// Read what the socket has and resolve every complete reply. Returns
    /// false when the connection failed.
    fn read(&mut self, shared: &TcpShared, node: NodeId) -> bool {
        if !fill(&mut self.asm, &self.conn.sock) {
            return false;
        }
        // Replies travel `dst → node`; the pending gauge lives on the
        // link as dialed, `node → dst`.
        let in_obs = shared.obs.pair(self.dst, node);
        let link_obs = shared.obs.pair(node, self.dst);
        loop {
            let (req_id, n, data) = match self.asm.next_frame() {
                Ok(Some((WireMsg::BlockReply { req_id, data }, n))) => (req_id, n, Some(data)),
                Ok(Some((WireMsg::BarrierAck { req_id } | WireMsg::Pong { req_id }, n))) => {
                    (req_id, n, None)
                }
                Ok(None) => return true,
                // Only replies travel dst → node; anything else is
                // protocol corruption.
                Ok(Some(_)) | Err(_) => return false,
            };
            shared.frames_received.fetch_add(1, Ordering::Relaxed);
            in_obs.frames_in.inc();
            in_obs.bytes_in.add(n);
            // The requester may have timed out; a late reply just drops.
            match (self.conn.pending.remove(req_id), data) {
                (Some(Pending::Block(tx)), Some(data)) => {
                    link_obs.pending_replies.adjust(-1);
                    let _ = tx.send(data);
                }
                (Some(Pending::Barrier(tx)), None) => {
                    link_obs.pending_replies.adjust(-1);
                    let _ = tx.send(());
                }
                _ => {}
            }
        }
    }
}

/// The per-node event loop: accepts inbound connections, demuxes their
/// frames to the service inbox, resumes reply trains the socket cut short,
/// and resolves replies arriving on connections this node dialed. Its one
/// blocking point is `poll` over every socket plus the wake socket.
fn reactor_loop(shared: Arc<TcpShared>, node: NodeId, listener: TcpListener, wake_rx: UnixStream) {
    let mailbox = &shared.mailboxes[node.index()];
    let mut inbound: Vec<InConn> = Vec::new();
    let mut outbound: Vec<OutWatch> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut hot_until = Instant::now();
    while !shared.stop.load(Ordering::Acquire) {
        mailbox.kicked.store(false, Ordering::SeqCst);
        outbound.extend(mailbox.watch.lock().drain(..).map(|(dst, conn)| OutWatch {
            dst,
            conn,
            asm: FrameAssembler::new(),
        }));
        // Poll set: wake socket, listener, inbound, outbound — in order.
        fds.clear();
        fds.push(PollFd::new(&wake_rx, POLLIN));
        fds.push(PollFd::new(&listener, POLLIN));
        for c in &inbound {
            let out = match &c.peer {
                Some(p) if p.replies.want_write.load(Ordering::Acquire) => POLLOUT,
                _ => 0,
            };
            fds.push(PollFd::new(&c.sock, POLLIN | out));
        }
        for w in &outbound {
            fds.push(PollFd::new(&w.conn.sock, POLLIN));
        }
        let now = Instant::now();
        let hot = now < hot_until;
        let timeout = if hot {
            Some(Duration::ZERO)
        } else {
            // Announce the block, then re-check for a wake that raced it.
            mailbox.parked.store(true, Ordering::SeqCst);
            if mailbox.kicked.load(Ordering::SeqCst) {
                mailbox.parked.store(false, Ordering::SeqCst);
                continue;
            }
            inbound
                .iter()
                .filter(|c| c.peer.is_none())
                .map(|c| c.deadline.saturating_duration_since(now))
                .min()
        };
        let ready = poll_fds(&mut fds, timeout);
        mailbox.parked.store(false, Ordering::SeqCst);
        if fds[0].revents != 0 {
            while matches!((&wake_rx).read(&mut [0; 64]), Ok(n) if n > 0) {}
        }
        let mut polled = fds[2..].iter().map(|f| f.revents);
        inbound.retain_mut(|c| c.service(&shared, node, polled.next().unwrap_or(0)));
        outbound.retain_mut(|w| {
            let ok = polled.next().unwrap_or(0) == 0 || w.read(&shared, node);
            if !ok {
                conn_failed(&shared, node, w.dst, &w.conn);
            }
            ok
        });
        if fds[1].revents != 0 {
            // Accept everything queued (WouldBlock/transient: next event).
            while let Ok((sock, _)) = listener.accept() {
                let _ = sock.set_nodelay(true);
                let _ = sock.set_nonblocking(true);
                inbound.push(InConn::new(sock));
            }
        }
        if ready > usize::from(fds[0].revents != 0) {
            hot_until = Instant::now() + HOT_WINDOW;
        } else if hot {
            std::thread::yield_now();
        }
    }
    // Shutdown: InConn/Conn drops close every socket.
}
