//! Load generation: a fixed-rate open loop timed from each request's
//! scheduled send, and a closed loop of callers with one request
//! outstanding each.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one operation reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// False when the operation failed, was refused or timed out.
    pub ok: bool,
    /// Caller-defined class (e.g. read or write).
    pub class: u8,
}

/// One sent request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Schedule index.
    pub seq: u64,
    /// Completion time minus scheduled send time, ns.
    pub latency_ns: u64,
    /// How late the generator sent it, counted from when it could have
    /// (the later of its scheduled time and its connection's previous
    /// completion), ns. Waiting behind a slow server is not lateness.
    pub late_ns: u64,
    /// What the operation reported.
    pub outcome: Outcome,
}

/// An open-loop phase's record.
#[derive(Debug, Default)]
pub struct OpenRun {
    /// Every sent request.
    pub timed: Vec<Timed>,
    /// Requests scheduled inside the window.
    pub scheduled: u64,
    /// Scheduled requests still unsent when the window closed (backlog).
    pub unsent: u64,
}

/// Run a fixed-rate open loop for `window`: request `k` is due at
/// `k / rate` seconds and is sent by thread `k % states.len()` over that
/// thread's state (its connection). A thread still busy at a request's due
/// time sends it as soon as the previous one completes; the request's
/// latency counts from its due time, so a stall inflates the latency of
/// every request queued behind it. Sending stops when the window closes.
pub fn open_loop<S, F>(states: &mut [S], rate: f64, window: Duration, op: F) -> OpenRun
where
    S: Send,
    F: Fn(&mut S, u64) -> Outcome + Sync,
{
    let threads = states.len() as u64;
    let period = 1.0 / rate;
    let scheduled = (window.as_secs_f64() * rate).ceil() as u64;
    // A short lead so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + window;
    let op = &op;
    let parts: Vec<(Vec<Timed>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(t, state)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut prev_done = start;
                    let mut unsent = 0;
                    let mut k = t as u64;
                    while k < scheduled {
                        let due = start + Duration::from_secs_f64(k as f64 * period);
                        let now = Instant::now();
                        if now >= end {
                            unsent = (scheduled - k).div_ceil(threads);
                            break;
                        }
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = op(state, k);
                        let done = Instant::now();
                        out.push(Timed {
                            seq: k,
                            latency_ns: (done - due).as_nanos() as u64,
                            late_ns: sent
                                .saturating_duration_since(due.max(prev_done))
                                .as_nanos() as u64,
                            outcome,
                        });
                        prev_done = done;
                        k += threads;
                    }
                    (out, unsent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut run = OpenRun {
        scheduled,
        ..OpenRun::default()
    };
    for (timed, unsent) in parts {
        run.timed.extend(timed);
        run.unsent += unsent;
    }
    run.timed.sort_by_key(|t| t.seq);
    run
}

impl OpenRun {
    /// `value(t)` of every sent request of `class` (all classes when
    /// `None`) due at or after `lead` seconds into the phase, ascending.
    pub fn sample(
        &self,
        rate: f64,
        lead: f64,
        class: Option<u8>,
        value: impl Fn(&Timed) -> f64,
    ) -> Vec<f64> {
        self.windows(rate, lead, f64::INFINITY, class, value)
            .pop()
            .unwrap_or_default()
    }

    /// The same, split by due time into consecutive windows of `width`
    /// seconds from `lead` on, each ascending. The last window is dropped
    /// if it is less than half full in time, unless it is the only one.
    pub fn windows(
        &self,
        rate: f64,
        lead: f64,
        width: f64,
        class: Option<u8>,
        value: impl Fn(&Timed) -> f64,
    ) -> Vec<Vec<f64>> {
        let span = self.scheduled as f64 / rate - lead;
        let full = (span / width).floor() as usize;
        let n = if span - full as f64 * width >= width / 2.0 || full == 0 {
            full + 1
        } else {
            full
        };
        let mut out = vec![Vec::new(); n];
        for t in &self.timed {
            let due = t.seq as f64 / rate - lead;
            if due < 0.0 || class.is_some_and(|c| c != t.outcome.class) {
                continue;
            }
            if let Some(w) = out.get_mut((due / width) as usize) {
                w.push(value(t));
            }
        }
        out.into_iter().map(crate::stats::sorted).collect()
    }
}

/// A closed-loop phase's record.
#[derive(Debug, Default, Clone)]
pub struct ClosedRun {
    /// Operations completed (including failed ones).
    pub done: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Completion times of the successful operations, ns from the start,
    /// ascending.
    pub done_at: Vec<u64>,
}

impl ClosedRun {
    /// Completions per second in consecutive windows of `width` seconds
    /// from `lead` on (the last, cut short by the phase's end, dropped).
    /// Each is taken from the window's first completion to its last, so it
    /// reads as a continuous value; windows with fewer than two
    /// completions are skipped.
    pub fn rates(&self, lead: f64, width: f64) -> Vec<f64> {
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for &ns in &self.done_at {
            let t = ns as f64 / 1e9 - lead;
            if t >= 0.0 {
                let w = (t / width) as usize;
                if windows.len() <= w {
                    windows.resize_with(w + 1, Vec::new);
                }
                windows[w].push(ns);
            }
        }
        windows.pop();
        windows
            .iter()
            .filter(|w| w.len() >= 2 && w[w.len() - 1] > w[0])
            .map(|w| (w.len() - 1) as f64 / ((w[w.len() - 1] - w[0]) as f64 / 1e9))
            .collect()
    }
}

/// Run one caller per state, each with one request outstanding, for
/// `window`. Every call gets a fresh sequence number from `base` on.
pub fn closed_loop<S, F>(states: &mut [S], window: Duration, base: u64, op: F) -> ClosedRun
where
    S: Send,
    F: Fn(&mut S, u64) -> Outcome + Sync,
{
    let next = AtomicU64::new(base);
    let failed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let end = start + window;
    let (op, next, failed, stop) = (&op, &next, &failed, &stop);
    let mut done_at: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut done_at = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let ok = op(state, seq).ok;
                        let now = Instant::now();
                        if ok {
                            done_at.push((now - start).as_nanos() as u64);
                        } else {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        if now >= end {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    done_at
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    done_at.sort_unstable();
    ClosedRun {
        done: next.load(Ordering::Relaxed) - base,
        failed: failed.load(Ordering::Relaxed),
        done_at,
    }
}
