//! The benchmark's own arithmetic: the tail-percentile rule, the SLO-rate
//! interpolation, span self time, and open-loop timing.

use perfbench::openloop::{open_loop, Outcome};
use perfbench::span::{self, Kind, Recorder, Span};
use perfbench::stats::{self, Rung};
use std::time::Duration;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    let t = stats::tail(&ramp(1000), 99.0).expect("enough samples");
    assert_eq!((t.pct, t.n), (99.0, 1000));
    assert!((t.value - 990.01).abs() < 1e-9, "{}", t.value);
    // 500 samples leave 10 beyond p98 but only 5 beyond p99.
    let t = stats::tail(&ramp(500), 99.0).expect("enough samples");
    assert!((t.pct - 98.0).abs() < 1e-9, "{}", t.pct);
    assert!(ramp(500).iter().filter(|&&v| v > t.value).count() >= stats::MIN_BEYOND);
    // More samples never lower the percentile below the one asked for.
    assert_eq!(stats::tail(&ramp(5000), 99.0).expect("enough").pct, 99.0);
    assert_eq!(stats::tail(&ramp(10), 99.0), None);
}

#[test]
fn slo_rate_interpolates_between_the_bracketing_rungs() {
    let r = |rate, score| Rung { rate, score };
    // Log-score crosses zero halfway between 0.5 and 2.0.
    let v = stats::slo_rate(&[r(100.0, 0.2), r(200.0, 0.5), r(300.0, 2.0)]);
    assert!((v - 250.0).abs() < 1e-9, "{v}");
    // A lower rung that missed on its own does not cap the rate.
    let w = stats::slo_rate(&[r(100.0, 3.0), r(200.0, 0.5), r(300.0, 2.0)]);
    assert_eq!(v, w);
    // Continuous: nudging a score nudges the rate.
    let a = stats::slo_rate(&[r(200.0, 0.5), r(300.0, 2.0)]);
    let b = stats::slo_rate(&[r(200.0, 0.5), r(300.0, 2.001)]);
    assert!(a > b && a - b < 0.1, "{a} {b}");
    let near_pass = stats::slo_rate(&[r(200.0, 0.5), r(300.0, 1.000_001)]);
    assert!((near_pass - 300.0).abs() < 0.01, "{near_pass}");
    // The top rung passes: its rate; every rung misses: scaled down.
    assert_eq!(stats::slo_rate(&[r(100.0, 3.0), r(200.0, 0.9)]), 200.0);
    assert_eq!(stats::slo_rate(&[r(100.0, 4.0), r(200.0, 8.0)]), 25.0);
}

fn sp(id: u32, parent: u32, kind: Kind, file: u32, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        kind,
        file,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_nested_and_linked_children() {
    let mut spans = vec![
        // Client request for file 1, and one for file 2 over the same time.
        sp(1, 0, Kind::Request, 1, 0, 100),
        sp(2, 0, Kind::Request, 2, 0, 100),
        // The backend read, recorded on another thread: no parent yet.
        sp(3, 0, Kind::Read, 1, 10, 90),
        // Two overlapping fetches nested under it on its own thread.
        sp(4, 3, Kind::Fetch, 1, 20, 40),
        sp(5, 3, Kind::Fetch, 1, 30, 50),
        // A store read on a disk worker thread: unparented.
        sp(6, 0, Kind::StoreRead, 1, 60, 70),
        // A store read for a file no open read covers stays unlinked.
        sp(7, 0, Kind::StoreRead, 9, 60, 70),
    ];
    span::link(&mut spans, span::parent_kinds);
    assert_eq!(spans[2].parent, 1, "read links to the request for its file");
    assert_eq!(spans[5].parent, 3, "store read links to the read");
    assert_eq!(spans[6].parent, 0);
    // Request 1 minus its read: 100 - 80. Request 2 has no child.
    assert_eq!(
        span::self_times(&spans, Kind::Request, &[Kind::Read]),
        vec![20.0, 100.0]
    );
    // The read minus the union of its fetches (20..50): 80 - 30.
    assert_eq!(
        span::self_times(&spans, Kind::Read, &[Kind::Fetch]),
        vec![50.0]
    );
    // ... and minus the linked store read too: 50 - 10.
    let both = span::self_times(&spans, Kind::Read, &[Kind::Fetch, Kind::StoreRead]);
    assert_eq!(both, vec![40.0]);
}

#[test]
fn recorder_parents_spans_on_one_thread_only() {
    let rec = Recorder::default();
    assert!(rec.open(Kind::Read, 1).is_none(), "off records nothing");
    rec.set(true);
    {
        let _read = rec.open(Kind::Read, 1);
        let _fetch = rec.open(Kind::Fetch, 1);
        std::thread::scope(|s| {
            s.spawn(|| drop(rec.open(Kind::StoreRead, 1)));
        });
    }
    drop(rec.open(Kind::Send, 1));
    let spans = rec.drain();
    let by = |k| spans.iter().find(|s| s.kind == k).expect("recorded");
    assert_eq!(by(Kind::Read).parent, 0);
    assert_eq!(by(Kind::Fetch).parent, by(Kind::Read).id);
    assert_eq!(
        by(Kind::StoreRead).parent,
        0,
        "another thread has no parent"
    );
    assert_eq!(by(Kind::Send).parent, 0, "the read had closed");
}

#[test]
fn open_loop_charges_a_stall_to_every_request_queued_behind_it() {
    // One connection, a request due every 5 ms; the server stalls 100 ms
    // once, on request 5.
    let period_ms = 5.0;
    let mut states = [()];
    let run = open_loop(
        &mut states,
        1e3 / period_ms,
        Duration::from_millis(400),
        |_, k| {
            if k == 5 {
                std::thread::sleep(Duration::from_millis(100));
            }
            Outcome { ok: true, class: 0 }
        },
    );
    assert_eq!(run.timed.len() as u64 + run.unsent, run.scheduled);
    let lat = |k: usize| run.timed[k].latency_ns as f64 / 1e6;
    assert!(lat(5) >= 100.0, "the stalled request itself: {}", lat(5));
    // Request k (k > 5) cannot be sent before request 5 completes, at
    // least 100 ms after request 5 was due: its latency counts from its
    // own due time, so it is at least 100 - 5 (k - 5) ms.
    for k in 6..25 {
        let floor = 100.0 - period_ms * (k - 5) as f64;
        assert!(lat(k) >= floor, "request {k}: {} < {floor}", lat(k));
    }
    // Waiting behind the server is not generator lateness.
    let late = |k: usize| run.timed[k].late_ns as f64 / 1e6;
    assert!(
        (6..25).all(|k| late(k) < 50.0),
        "lateness charged to the stall"
    );
}
