//! In-process load generation over engine sessions, and the preload helper.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use laoram_service::{LaoramService, Request, ServiceError, Session};

use crate::report::Latencies;
use crate::Phase;

/// What a request's output must be.
pub enum Expected {
    /// Exactly this payload.
    Exact(Box<[u8]>),
    /// The row's preload contents, checked by the workload's verifier.
    Preloaded(u32),
}

/// Checks outputs against the reference model and counts mismatches.
pub struct Checker<'a> {
    pub verify_preloaded: &'a (dyn Fn(u32, Option<&[u8]>) -> bool + Sync),
    pub checked: u64,
    pub mismatches: u64,
}

impl Checker<'_> {
    pub fn check(&mut self, expected: &Expected, output: Option<&[u8]>) {
        let ok = match expected {
            Expected::Exact(want) => Some(&want[..]) == output,
            Expected::Preloaded(row) => (self.verify_preloaded)(*row, output),
        };
        self.checked += 1;
        self.mismatches += u64::from(!ok);
    }
}

fn is_refusal(e: &ServiceError) -> bool {
    matches!(e, ServiceError::Backpressure(_))
}

/// How the load generator offers load.
#[derive(Clone, Copy)]
pub enum Offer<'a> {
    /// Closed loop: keep this many requests in flight.
    Closed(usize),
    /// Open loop: submit request `i` at `schedule[i]` ns after the start,
    /// regardless of completions.
    Open(&'a [u64]),
}

/// Drives `sessions` from one thread until `deadline` (or the end of an
/// open-loop schedule), then drains. Latency is the engine's submit →
/// completion time; in the open loop it counts from the scheduled time,
/// so it includes how late the submit was. Returns the phase and the
/// open-loop generator's lateness.
pub fn sessions(
    service: &LaoramService,
    sessions: &[Session],
    next: &mut dyn FnMut(usize) -> (Request, Expected),
    checker: &mut Checker<'_>,
    offer: Offer<'_>,
    deadline: Instant,
) -> (Phase, Latencies) {
    let mut phase = Phase::default();
    let mut lateness = Latencies::default();
    // ticket -> (ns owed before the submit: open-loop lateness, expected output)
    let mut inflight: HashMap<u64, (u64, Expected)> = HashMap::new();
    let start = Instant::now();
    phase.window = Some((start, deadline));
    let mut sent = 0usize;
    let mut flushed = false;
    let claim = |c: laoram_service::Completion,
                 inflight: &mut HashMap<u64, (u64, Expected)>,
                 phase: &mut Phase,
                 checker: &mut Checker<'_>| {
        if let Some((owed, expected)) = inflight.remove(&c.ticket.id()) {
            // The engine's own enqueue -> complete time, so the load
            // thread's wake-up delay in claiming is not counted.
            phase.latency.record(owed + c.timing.total_ns());
            phase.ops.succeeded += 1;
            checker.check(&expected, c.output.as_deref());
        }
    };
    loop {
        let open = Instant::now() < deadline;
        match offer {
            Offer::Closed(window) => {
                while open && inflight.len() < window {
                    let session = sent % sessions.len();
                    submit(&sessions[session], next(session), &mut inflight, &mut phase, 0);
                    sent += 1;
                }
            }
            Offer::Open(schedule) => {
                while open && sent < schedule.len() {
                    let due = start + Duration::from_nanos(schedule[sent]);
                    let now = Instant::now();
                    if due > now {
                        break;
                    }
                    let late = (now - due).as_nanos() as u64;
                    lateness.record(late);
                    let session = sent % sessions.len();
                    submit(&sessions[session], next(session), &mut inflight, &mut phase, late);
                    sent += 1;
                }
            }
        }
        let more = match offer {
            Offer::Closed(_) => open,
            Offer::Open(schedule) => open && sent < schedule.len(),
        };
        if !more && !flushed {
            let _ = service.flush();
            flushed = true;
        }
        if inflight.is_empty() && !more {
            break;
        }
        match offer {
            Offer::Closed(_) => match service.complete_blocking() {
                Ok(c) => claim(c, &mut inflight, &mut phase, checker),
                Err(e) => {
                    eprintln!("drive: completion failed: {e}");
                    break;
                }
            },
            Offer::Open(schedule) => {
                let mut any = false;
                while let Some(c) = service.try_complete() {
                    claim(c, &mut inflight, &mut phase, checker);
                    any = true;
                }
                if !any {
                    // Sleep toward the next due time in short steps.
                    let pause = Duration::from_micros(200);
                    let wait = schedule.get(sent).filter(|_| more).map_or(pause, |&o| {
                        (start + Duration::from_nanos(o)).saturating_duration_since(Instant::now())
                    });
                    std::thread::sleep(wait.min(pause));
                }
            }
        }
        while let Some(c) = service.try_complete() {
            claim(c, &mut inflight, &mut phase, checker);
        }
    }
    // Anything still unclaimed failed to complete.
    for _ in inflight.drain() {
        phase.ops.failed += 1;
        phase.latency.record_miss();
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, lateness)
}

fn submit(
    session: &Session,
    (request, expected): (Request, Expected),
    inflight: &mut HashMap<u64, (u64, Expected)>,
    phase: &mut Phase,
    owed: u64,
) {
    phase.ops.attempted += 1;
    match session.submit(request) {
        Ok(ticket) => {
            inflight.insert(ticket.id(), (owed, expected));
        }
        Err(e) => {
            if is_refusal(&e) {
                phase.ops.refused += 1;
            } else {
                eprintln!("drive: submit failed: {e}");
                phase.ops.failed += 1;
            }
            phase.latency.record_miss();
        }
    }
}

/// Writes `rows` through the batch API, `batch` rows per group with two
/// groups in flight, and checks every write found its row empty.
pub fn preload(
    service: &mut LaoramService,
    rows: u32,
    batch: usize,
    payload: impl Fn(u32) -> Box<[u8]>,
) {
    let mut next = 0u32;
    let mut outstanding = 0usize;
    while next < rows || outstanding > 0 {
        while next < rows && outstanding < 2 {
            let end = rows.min(next + batch as u32);
            let requests = (next..end).map(|row| Request::write(0, row, payload(row))).collect();
            service.submit(requests).expect("preload: submit");
            next = end;
            outstanding += 1;
        }
        let response = service.next_response().expect("preload: response");
        assert!(
            response.outputs.iter().all(Option::is_none),
            "preload found a row already written"
        );
        outstanding -= 1;
    }
}
