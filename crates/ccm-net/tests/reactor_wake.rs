//! Wake-path tests for the readiness-driven reactor.
//!
//! Each node's reactor blocks in `poll(2)` on its sockets and a wake
//! socket, so it must cost nothing while idle and still react at once to
//! every source of work:
//!
//! * an idle cluster's reactors burn (almost) no CPU;
//! * bytes from a raw socket peer — a writer with no in-process way to
//!   signal the reactor — are served;
//! * a reply completed long after the reactor went to sleep reaches the
//!   wire without waiting for any timer;
//! * dropping the LAN breaks every reactor out of `poll` promptly.

use ccm_core::{BlockId, FileId, NodeId};
use ccm_net::{read_frame, write_frame, TcpLan, WireMsg, WIRE_VERSION};
use ccm_rt::{PeerMsg, Transport};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// The idle-CPU probe counts every reactor thread in the process, so the
/// tests in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A peer service answering every request, each reply `delay` late.
fn serve(rx: simcore::chan::Receiver<PeerMsg>, delay: Duration) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(msg) = rx.recv() {
            std::thread::sleep(delay);
            match msg {
                PeerMsg::BlockRequest { block, reply } => {
                    let _ = reply.send(Some(vec![block.index as u8; 64].into()));
                }
                PeerMsg::Barrier { reply } | PeerMsg::Ping { reply } => {
                    let _ = reply.send(());
                }
                PeerMsg::Shutdown => break,
                _ => {}
            }
        }
    })
}

/// A `nodes`-node LAN with a service per node and every directed link
/// dialed by one completed fetch.
fn dialed_cluster(nodes: usize) -> (Arc<TcpLan>, Vec<JoinHandle<()>>) {
    let lan = Arc::new(TcpLan::loopback(nodes).expect("bind loopback listeners"));
    let services = (0..nodes)
        .map(|n| serve(lan.reconnect(NodeId(n as u16)), Duration::ZERO))
        .collect();
    for src in 0..nodes as u16 {
        for dst in (0..nodes as u16).filter(|&d| d != src) {
            let block = BlockId::new(FileId(0), u32::from(dst));
            let got = lan.fetch_block(NodeId(src), NodeId(dst), block, FETCH_TIMEOUT);
            assert!(got.is_some(), "link {src} -> {dst} must serve");
        }
    }
    assert_eq!(lan.net_stats().connects, (nodes * (nodes - 1)) as u64);
    (lan, services)
}

/// Stop the services: dropping the last LAN handle disconnects their
/// inboxes.
fn finish(lan: Arc<TcpLan>, services: Vec<JoinHandle<()>>) {
    drop(lan);
    for s in services {
        s.join().unwrap();
    }
}

/// CPU time (user + system) spent so far by this process's reactor threads.
#[cfg(target_os = "linux")]
fn reactor_cpu() -> Duration {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    let mut ticks = 0u64;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let Ok(stat) = std::fs::read_to_string(task.unwrap().path().join("stat")) else {
            continue; // the thread exited meanwhile
        };
        // `pid (comm) state ...`: comm may hold spaces, so split after the
        // last ')'. Thread names are truncated to 15 bytes by the kernel.
        let (head, rest) = stat.rsplit_once(')').expect("stat has a comm field");
        if !head.contains("(ccm-net-reactor") {
            continue;
        }
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // Fields 14 and 15 of stat (utime, stime); `rest` starts at 3.
        ticks += fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    }
    Duration::from_micros(ticks * 1_000_000 / hz)
}

/// An idle cluster must leave its reactors asleep: with every link dialed
/// and nothing in flight, a second of wall time costs the four reactors
/// under 5 ms of CPU between them.
#[cfg(target_os = "linux")]
#[test]
fn idle_reactors_burn_no_cpu() {
    let _serial = serial();
    let (lan, services) = dialed_cluster(4);
    // Let every reactor run out its hot window and block.
    std::thread::sleep(Duration::from_millis(100));
    let before = reactor_cpu();
    std::thread::sleep(Duration::from_secs(1));
    let spent = reactor_cpu() - before;
    finish(lan, services);
    assert!(
        spent < Duration::from_millis(5),
        "idle reactors spent {spent:?} of CPU in 1 s"
    );
}

/// A peer in another process cannot signal the reactor in-process; its
/// bytes must wake the reactor by socket readiness alone.
#[test]
fn raw_socket_peer_gets_its_reply() {
    let _serial = serial();
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let service = serve(lan.reconnect(NodeId(1)), Duration::ZERO);
    // Let the reactor block before the peer shows up.
    std::thread::sleep(Duration::from_millis(20));

    let mut sock = TcpStream::connect(lan.addr(NodeId(1))).expect("dial node 1");
    sock.set_read_timeout(Some(FETCH_TIMEOUT)).unwrap();
    let hello = WireMsg::Hello {
        version: WIRE_VERSION,
        node: NodeId(0),
    };
    write_frame(&mut sock, &hello).unwrap();
    let block = BlockId::new(FileId(3), 9);
    write_frame(&mut sock, &WireMsg::BlockRequest { req_id: 77, block }).unwrap();
    match read_frame(&mut sock).expect("reply arrives before the read timeout") {
        Some(WireMsg::BlockReply {
            req_id: 77,
            data: Some(data),
        }) => assert_eq!(&data[..], &[9u8; 64][..]),
        other => panic!("expected the block reply, got {other:?}"),
    }
    drop(sock);
    finish(lan, vec![service]);
}

/// A reply completed long after the reactor blocked is flushed by the
/// thread that completes it, so it arrives right after the service's
/// delay — not at a timer tick, and well inside the fetch timeout.
#[test]
fn late_reply_after_reactor_blocks_is_delivered_promptly() {
    let _serial = serial();
    let delay = Duration::from_millis(20);
    let lan = Arc::new(TcpLan::loopback(2).expect("bind loopback listeners"));
    let _rx0 = lan.reconnect(NodeId(0));
    let service = serve(lan.reconnect(NodeId(1)), delay);
    let block = BlockId::new(FileId(1), 4);
    for _ in 0..3 {
        let t = Instant::now();
        let got = lan.fetch_block(NodeId(0), NodeId(1), block, FETCH_TIMEOUT);
        let took = t.elapsed();
        assert!(got.is_some(), "late reply must still be a hit");
        assert!(took >= delay, "reply cannot beat the service: {took:?}");
        assert!(
            took < FETCH_TIMEOUT / 4,
            "reply took {took:?} against a {FETCH_TIMEOUT:?} timeout"
        );
    }
    finish(lan, vec![service]);
}

/// Dropping an idle LAN wakes every blocked reactor and joins it at once.
#[test]
fn dropping_an_idle_lan_joins_reactors_promptly() {
    let _serial = serial();
    let (lan, services) = dialed_cluster(4);
    std::thread::sleep(Duration::from_millis(50));
    let lan = Arc::try_unwrap(lan).unwrap_or_else(|_| panic!("sole LAN handle"));
    let t = Instant::now();
    drop(lan);
    let took = t.elapsed();
    for s in services {
        s.join().unwrap();
    }
    assert!(
        took < Duration::from_millis(100),
        "dropping an idle LAN took {took:?}"
    );
}
