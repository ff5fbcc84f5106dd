//! Open-loop read generator.
//!
//! Requests go out on a fixed schedule whether or not earlier ones were
//! answered, so a stalled server faces a growing queue, as it would with
//! independent users. Each request is timed from its due send time, which
//! charges a stall to every request it delays, and the generator reports
//! how late it sent. Each connection has one sender and one receiver
//! thread; requests on a connection are answered in order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use crate::check::{Read, ResponseCheck};
use crate::rng::Rng;

/// A connection that stays silent this long while a reply is due fails
/// that request and every later one on it (a socket read timeout, not a
/// bound on each request's latency from its due time).
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Share of reads that are `topk`; the rest are `score`. No traffic data
/// exists, so the mix is unverified: it is the repository's own load
/// generator's, `qrank_serve::LoadConfig::default()`, whose every 10th
/// request is a `topk`.
const TOPK_SHARE: f64 = 0.1;
/// `topk` sizes are uniform in `1..=TOPK_MAX_K`, twice the server's
/// 64-entry LRU, so the cache hit ratio is neither 0 nor 1.
const TOPK_MAX_K: u64 = 128;

/// The read mix: `score` on a uniformly random page, or `topk` with a
/// random size.
pub fn next_read(rng: &mut Rng, pages: usize) -> Read {
    if rng.chance(TOPK_SHARE) {
        Read::TopK(1 + rng.below(TOPK_MAX_K) as usize)
    } else {
        Read::Score(rng.below(pages as u64))
    }
}

/// Due times of an open loop at `rate` requests per second.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: f64,
}

impl Schedule {
    /// A schedule at `rate` requests per second (`rate > 0`).
    pub fn new(rate: f64) -> Self {
        Schedule {
            interval_ns: 1e9 / rate,
        }
    }

    /// Due offset of request `i`, in nanoseconds from the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// How many requests are due by `elapsed_ns` (requests `0..n`).
    pub fn due_by(&self, elapsed_ns: u64) -> u64 {
        (elapsed_ns as f64 / self.interval_ns) as u64 + 1
    }
}

/// Sends that went out after their due time: the generator's own delay.
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    /// Lateness of each send, in microseconds.
    pub late_us: Vec<f64>,
}

impl Lateness {
    /// Record that requests `from..to` were sent at `sent_ns` (offsets
    /// from the schedule's start).
    pub fn record_batch(&mut self, schedule: &Schedule, from: u64, to: u64, sent_ns: u64) {
        for i in from..to {
            self.late_us
                .push(sent_ns.saturating_sub(schedule.due_ns(i)) as f64 / 1e3);
        }
    }
}

/// One rung's outcome, over every connection.
#[derive(Debug, Default)]
pub struct Rung {
    /// Requests sent.
    pub sent: u64,
    /// Requests that failed: wrong answer, refusal, or no reply in time.
    pub failed: u64,
    /// Of the failed, refusals answered `overloaded`.
    pub shed: u64,
    /// Each answered request's due offset (ns from the rung's start) and
    /// latency from its due time (µs).
    pub samples: Vec<(u64, f64)>,
    /// Round trip from actual send to reply, in microseconds.
    pub rtt_us: Vec<f64>,
    /// The generator's lateness.
    pub late: Lateness,
    /// First time each generation was seen in a reply.
    pub generations: Vec<(u64, Instant)>,
    /// How long the rung sent for.
    pub duration: Duration,
}

/// Run one open-loop rung at `rate` for `duration` over `conns`; `salt`
/// picks this rung's share of the seeded read stream.
pub fn run_rung(
    conns: &[TcpStream],
    pages: usize,
    rate: f64,
    duration: Duration,
    seed: u64,
    salt: u64,
) -> Rung {
    let per_conn = Schedule::new(rate / conns.len() as f64);
    let start = Instant::now();
    let results: Vec<Rung> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let offset_ns = per_conn.due_ns(1) * c as u64 / conns.len() as u64;
                let mut rng = Rng::new(seed, salt * 64 + c as u64);
                let (tx, rx) = channel::<(u64, u64, Read)>();
                let mut writer = conn.try_clone().expect("clone a connected socket");
                let sender = scope.spawn(move || {
                    let mut late = Lateness::default();
                    let end_ns = duration.as_nanos() as u64;
                    let mut next = 0u64;
                    let mut buf = Vec::new();
                    loop {
                        let now = start.elapsed().as_nanos() as u64;
                        let elapsed = now.saturating_sub(offset_ns);
                        if now >= end_ns {
                            break;
                        }
                        let due = if now < offset_ns {
                            0
                        } else {
                            per_conn.due_by(elapsed)
                        };
                        if next < due {
                            buf.clear();
                            for i in next..due {
                                let read = next_read(&mut rng, pages);
                                buf.extend_from_slice(read.line().as_bytes());
                                buf.push(b'\n');
                                let _ = tx.send((offset_ns + per_conn.due_ns(i), elapsed, read));
                            }
                            late.record_batch(&per_conn, next, due, elapsed);
                            next = due;
                            if writer.write_all(&buf).is_err() {
                                break;
                            }
                        } else {
                            // Sleep, never spin: a spinning sender would
                            // take a core from the server and from refresh.
                            let wait = (offset_ns + per_conn.due_ns(next)).saturating_sub(now);
                            std::thread::sleep(Duration::from_nanos(wait));
                        }
                    }
                    (next, late)
                });
                let reader = conn.try_clone().expect("clone a connected socket");
                let receiver = scope.spawn(move || receive(reader, rx, pages, start, offset_ns));
                (sender, receiver)
            })
            .collect();
        workers
            .into_iter()
            .map(|(s, r)| {
                let (sent, late) = s.join().expect("sender thread");
                let mut rung = r.join().expect("receiver thread");
                rung.sent = sent;
                rung.late = late;
                rung
            })
            .collect()
    });
    let mut out = Rung {
        duration,
        ..Rung::default()
    };
    for r in results {
        out.sent += r.sent;
        out.failed += r.failed;
        out.shed += r.shed;
        out.samples.extend(r.samples);
        out.rtt_us.extend(r.rtt_us);
        out.late.late_us.extend(r.late.late_us);
        out.generations.extend(r.generations);
    }
    out
}

/// The receiving half of a connection: match replies to sends in order,
/// check them, and time them from their due time.
fn receive(
    stream: TcpStream,
    sent: std::sync::mpsc::Receiver<(u64, u64, Read)>,
    pages: usize,
    start: Instant,
    offset_ns: u64,
) -> Rung {
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut check = ResponseCheck::new(pages);
    let mut rung = Rung::default();
    let mut last_gen = 0;
    let mut line = String::new();
    let mut broken = false;
    for (due_ns, sent_ns, read) in sent {
        if broken {
            rung.failed += 1;
            continue;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                // A timeout or a closed connection loses this reply and,
                // since replies come in order, every later one.
                broken = true;
                rung.failed += 1;
                continue;
            }
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        match check.check(read, line.trim_end()) {
            Ok(()) => {
                rung.samples
                    .push((due_ns, now_ns.saturating_sub(due_ns) as f64 / 1e3));
                rung.rtt_us
                    .push(now_ns.saturating_sub(sent_ns + offset_ns) as f64 / 1e3);
                let generation = check.generation();
                if generation > last_gen {
                    last_gen = generation;
                    rung.generations
                        .push((generation, start + Duration::from_nanos(now_ns)));
                }
            }
            Err(e) => {
                if e.starts_with("refused: overloaded") {
                    rung.shed += 1;
                }
                rung.failed += 1;
            }
        }
    }
    rung
}

impl Rung {
    /// Every answered request's latency from its due time, in µs.
    pub fn latency_us(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, l)| l).collect()
    }

    /// Latencies split into `n` equal windows of the rung by due time.
    pub fn windows(&self, n: usize) -> Vec<Vec<f64>> {
        let width = (self.duration.as_nanos() as u64 / n as u64).max(1);
        let mut out = vec![Vec::new(); n];
        for &(due, latency) in &self.samples {
            out[((due / width) as usize).min(n - 1)].push(latency);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_evenly() {
        let s = Schedule::new(1_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 3_000_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(2_999_999), 3);
        assert_eq!(s.due_by(3_000_000), 4);
    }

    #[test]
    fn a_stalled_generator_sends_the_backlog_late_not_never() {
        // 1 kHz; the generator wakes at 0, 1 and 2 ms, then stalls until
        // 7.5 ms: requests 3..=7 go out together, late by 4.5 … 0.5 ms.
        let s = Schedule::new(1_000.0);
        let mut late = Lateness::default();
        let mut next = 0;
        for wake_ns in [0, 1_000_000, 2_000_000, 7_500_000] {
            let due = s.due_by(wake_ns);
            late.record_batch(&s, next, due, wake_ns);
            next = due;
        }
        assert_eq!(next, 8);
        assert_eq!(
            late.late_us,
            vec![0.0, 0.0, 0.0, 4_500.0, 3_500.0, 2_500.0, 1_500.0, 500.0]
        );
    }

    #[test]
    fn windows_split_samples_by_due_time() {
        let rung = Rung {
            samples: vec![(0, 1.0), (400, 2.0), (500, 3.0), (999, 4.0), (1_500, 5.0)],
            duration: Duration::from_nanos(1_000),
            ..Default::default()
        };
        let w = rung.windows(2);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        assert_eq!(rung.latency_us(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn the_read_mix_is_seeded_and_mixes_both_verbs() {
        let mut a = Rng::new(9, 1);
        let mut b = Rng::new(9, 1);
        let xs: Vec<Read> = (0..2_000).map(|_| next_read(&mut a, 100)).collect();
        let ys: Vec<Read> = (0..2_000).map(|_| next_read(&mut b, 100)).collect();
        assert_eq!(xs, ys);
        let topk = xs.iter().filter(|r| matches!(r, Read::TopK(_))).count();
        assert!((130..270).contains(&topk), "{topk} topk reads of 2000");
        assert!(xs.iter().all(|r| match r {
            Read::Score(p) => *p < 100,
            Read::TopK(k) => (1..=TOPK_MAX_K as usize).contains(k),
        }));
    }
}
