//! A transparent [`AbrPolicy`] wrapper that times calls into the policy
//! layer from outside.

use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One call in this many is timed. Timing every call would add a timer
/// pair (about 65 ns on the recording host) to each of the ~1.5 million
/// policy calls of an mc sweep.
const SAMPLE_ONE_IN: u64 = 4;

/// Calls into one policy method, and the host ns of the sampled ones.
#[derive(Debug, Default)]
pub struct MethodClock {
    /// Every call.
    pub calls: Cell<u64>,
    timed: Cell<u64>,
    ns: Cell<u64>,
}

impl MethodClock {
    /// Estimated host ns inside the method over all its calls, with
    /// `timer_ns` of timer cost taken off each timed call.
    pub fn net_ns(&self, timer_ns: f64) -> f64 {
        if self.timed.get() == 0 {
            return 0.0;
        }
        let per_call = self.ns.get() as f64 / self.timed.get() as f64 - timer_ns;
        per_call.max(0.0) * self.calls.get() as f64
    }
}

/// Calls into one policy and their sampled host times.
#[derive(Debug)]
pub struct PolicyClock {
    /// `select`.
    pub select: MethodClock,
    /// `on_transfer`.
    pub transfer: MethodClock,
    /// Xorshift state choosing the timed calls, so the sample does not
    /// alias the sessions' alternating audio/video call pattern.
    draw: Cell<u64>,
}

impl Default for PolicyClock {
    fn default() -> Self {
        PolicyClock {
            select: MethodClock::default(),
            transfer: MethodClock::default(),
            draw: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl PolicyClock {
    /// Runs one call of `method`, timing it when it is drawn.
    fn call<T>(&self, method: &MethodClock, f: impl FnOnce() -> T) -> T {
        add(&method.calls, 1);
        let mut x = self.draw.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.draw.set(x);
        if !x.is_multiple_of(SAMPLE_ONE_IN) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        add(&method.ns, start.elapsed().as_nanos() as u64);
        add(&method.timed, 1);
        out
    }
}

/// Delegates every [`AbrPolicy`] method to `inner`, timing `select` and
/// `on_transfer` into a shared [`PolicyClock`].
pub struct TimedPolicy {
    inner: Box<dyn AbrPolicy>,
    clock: Rc<PolicyClock>,
}

impl TimedPolicy {
    /// Wraps `inner`; read the times from `clock` after the session.
    pub fn wrap(inner: Box<dyn AbrPolicy>, clock: &Rc<PolicyClock>) -> Box<dyn AbrPolicy> {
        Box::new(TimedPolicy {
            inner,
            clock: Rc::clone(clock),
        })
    }
}

fn add(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl AbrPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        let inner = &mut self.inner;
        self.clock
            .call(&self.clock.transfer, || inner.on_transfer(record));
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let inner = &mut self.inner;
        self.clock.call(&self.clock.select, || inner.select(ctx))
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.inner.debug_estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.inner.set_obs(obs);
    }
}

/// Median host cost of one `Instant::now()` + `elapsed()` pair, ns: the
/// timer cost each wrapped call adds to its own reading.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 1000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PAIRS {
                black_box(black_box(Instant::now()).elapsed());
            }
            start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&batches)
}
