//! Measurement plumbing: in-memory spans, sample statistics, and process
//! resource usage.
//!
//! Spans are recorded only around calls into the measured crates, from
//! this benchmark's own code: a span has a name, a start, an end, the
//! span open when it began (its parent), and an id shared by every span
//! of one epoch or one request. They stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Handle to an open span (`None` while tracing is off).
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// The span recorder. `on` may be flipped during a run (the ingest
/// loop alternates traced and untraced epochs to measure the overhead).
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            self.spans[idx].end = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Self time of every span, grouped by name: a span's duration
    /// minus the time its children cover (children of one parent run
    /// one after another on the parent's thread, so their durations
    /// add up without overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            out.entry(span.name)
                .or_default()
                .push((span.end - span.start).saturating_sub(children));
        }
        out
    }

    /// Every span as tab-separated lines: `index name id parent start end`.
    pub fn dump(&self) -> String {
        let mut out = String::from("index\tname\tid\tparent\tstart_ns\tend_ns\n");
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{idx}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start, s.end
            );
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count). NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample. Returns `(value, percentile)`; the
/// percentile depends only on the sample count, which the workload's
/// schedule fixes. Falls back to the maximum below eleven samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let idx = if n >= 11 { n - 11 } else { n - 1 };
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Resource usage of this process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mb: f64,
    pub invol_ctx: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    // `struct rusage` of 64-bit Linux: two timevals, then fourteen
    // longs, of which the benchmark reads maxrss (KiB) and nivcsw.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the size and layout of the C `struct rusage`
    // on 64-bit Linux (the cfg above), the pointer is to writable
    // memory of that size, and getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    if rc != 0 {
        return Usage::default();
    }
    // SAFETY: zero-initialised above and filled by a successful call;
    // every field is a plain integer, valid for any bit pattern.
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        peak_rss_mb: ru.longs[0] as f64 / 1024.0,
        invol_ctx: u64::try_from(ru.longs[13]).unwrap_or(0),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        t.span("inner", 0, || std::thread::sleep(Duration::from_millis(2)));
        t.end(outer);
        let ns = t.self_ns();
        assert!(ns["inner"][0] >= 2_000_000);
        assert!(ns["outer"][0] < ns["inner"][0]);
    }
}
