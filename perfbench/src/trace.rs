//! Layer timing for the traced loops, plus the sample statistics the
//! report needs.
//!
//! The traced loops call each layer's public function from this crate
//! and wrap the call in [`Trace::time`]; nothing inside the program is
//! instrumented.

use std::time::{Duration, Instant};

/// A layer whose public calls the traced loops time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    FemInject,
    FemPush,
    FemMove,
    FemDeposit,
    FemSolve,
    /// `ParticleDats::sort_by_cell` (oppic-core's particle store).
    Sort,
    CabInterpolate,
    CabMoveDeposit,
    CabAccumulate,
    CabAdvanceB,
    CabAdvanceE,
    MpiMigrate,
    MpiAllreduce,
}

const N_LAYERS: usize = Layer::MpiAllreduce as usize + 1;

/// Busy time per layer and the wall time of the traced steps.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    busy: [Duration; N_LAYERS],
    /// Traced steps.
    pub steps: u64,
    /// Sum of traced step wall times.
    pub wall: Duration,
}

impl Trace {
    /// Run `f`, adding its wall time to `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy[layer as usize] += t.elapsed();
        r
    }

    /// Close one traced step that took `wall`.
    pub fn end_step(&mut self, wall: Duration) {
        self.steps += 1;
        self.wall += wall;
    }

    /// Mean milliseconds per traced step spent in `layer`.
    pub fn ms_per_step(&self, layer: Layer) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.busy[layer as usize].as_secs_f64() * 1e3 / self.steps as f64
    }

    /// Share of traced step wall time that no layer call covers.
    pub fn unattributed_frac(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            return 0.0;
        }
        let covered: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        (wall - covered) / wall
    }

    /// Add another trace's totals (another rank's, or another process's).
    pub fn merge(&mut self, other: &Trace) {
        for (a, b) in self.busy.iter_mut().zip(&other.busy) {
            *a += *b;
        }
        self.steps += other.steps;
        self.wall += other.wall;
    }

    /// One line of whole numbers: steps, wall ns, then each layer's
    /// busy ns.
    pub fn encode(&self) -> String {
        let mut fields = vec![self.steps.to_string(), self.wall.as_nanos().to_string()];
        fields.extend(self.busy.iter().map(|b| b.as_nanos().to_string()));
        fields.join(" ")
    }

    /// Parse [`Trace::encode`] output.
    pub fn decode(line: &str) -> Result<Self, String> {
        let nums: Vec<u64> = line
            .split_whitespace()
            .map(|x| x.parse().map_err(|_| format!("trace: bad number {x:?}")))
            .collect::<Result<_, _>>()?;
        let [steps, wall, busy @ ..] = nums.as_slice() else {
            return Err("trace: too few fields".into());
        };
        if busy.len() != N_LAYERS {
            return Err(format!("trace: {} layers, expected {N_LAYERS}", busy.len()));
        }
        let mut tr = Trace {
            steps: *steps,
            wall: Duration::from_nanos(*wall),
            ..Trace::default()
        };
        for (b, &ns) in tr.busy.iter_mut().zip(busy) {
            *b = Duration::from_nanos(ns);
        }
        Ok(tr)
    }
}

/// Time `f` into `tr` when tracing, else just run it.
#[inline]
pub fn timed<R>(tr: &mut Option<&mut Trace>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.time(layer, f),
        None => f(),
    }
}

/// CPU time this process has used so far, summed over its threads.
///
/// The end-to-end metrics are timed with this clock, not the wall clock.
/// On a KVM guest with steal-time accounting
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) the kernel leaves out of it the
/// time the hypervisor gave this guest's virtual CPUs to other guests,
/// and threads blocked in a join or a receive add nothing to it. Wall
/// time counts both, and on a shared host they vary from run to run by
/// more than the code does.
pub fn process_cpu() -> Duration {
    cpu_clock(CpuClock::Process)
}

/// CPU time the calling thread has used so far, on the same terms as
/// [`process_cpu`]. The 2-rank workload sums it over its rank threads,
/// so that each step's figure covers exactly that step on every rank.
pub fn thread_cpu() -> Duration {
    cpu_clock(CpuClock::Thread)
}

/// The `clockid_t` values of Linux's CPU-time clocks.
#[derive(Clone, Copy)]
enum CpuClock {
    Process = 2,
    Thread = 3,
}

#[cfg(target_os = "linux")]
fn cpu_clock(clock: CpuClock) -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock as c_int, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({}) failed", clock as c_int);
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated
/// between order statistics. `samples` must be non-empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        let many: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.9), 91.0);
    }

    #[test]
    fn unattributed_is_wall_minus_layers() {
        let mut tr = Trace::default();
        tr.busy[Layer::FemMove as usize] = Duration::from_millis(3);
        tr.end_step(Duration::from_millis(4));
        assert!((tr.unattributed_frac() - 0.25).abs() < 1e-12);
        assert!((tr.ms_per_step(Layer::FemMove) - 3.0).abs() < 1e-12);
        let back = Trace::decode(&tr.encode()).unwrap();
        assert_eq!(
            (back.busy, back.steps, back.wall),
            (tr.busy, tr.steps, tr.wall)
        );
        assert!(Trace::decode("1 2 3").is_err());
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (p, th) = (process_cpu() - p0, thread_cpu() - t0);
        assert!(th >= Duration::from_millis(5), "{th:?}");
        assert!(p >= Duration::from_millis(5), "{p:?}");
    }
}
