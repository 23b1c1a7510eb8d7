//! Measurement primitives: process CPU and peak memory (`getrusage`),
//! order statistics, the in-memory span recorder of the traced runs and a
//! small seeded generator for the workload inputs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::io::Write;
use std::time::Instant;

/// Process resource usage: user+sys CPU seconds and peak resident MiB.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Current resource usage of this process.
pub fn usage() -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&r.utime) + secs(&r.stime),
        peak_rss_mb: r.maxrss as f64 / 1024.0,
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run (excluding time stolen by the
/// hypervisor), at nanosecond resolution.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of 64-bit Linux
    // and `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock always exists on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// How fast the machine ran at some moment, from a fixed piece of the
/// benchmark's own code (see [`Probe`]): the wall and CPU seconds one
/// probe call took, or the medians of several.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Speed {
    /// The probe's time per call at reference speed. A time measured at
    /// speed `self` is scaled by `REFERENCE_S / self.wall_s` (CPU times
    /// by `REFERENCE_S / self.cpu_s`).
    pub const REFERENCE_S: f64 = 40e-6;

    pub fn wall_scale(&self) -> f64 {
        Self::REFERENCE_S / self.wall_s
    }

    pub fn cpu_scale(&self) -> f64 {
        Self::REFERENCE_S / self.cpu_s
    }

    /// The median speed of several samples.
    pub fn median(v: &[Speed]) -> Speed {
        Speed {
            wall_s: median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
            cpu_s: median(&v.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
        }
    }
}

/// The speed probe: a fixed computation of the benchmark's own that
/// calls nothing in the library. The CPU speed of a shared host drifts
/// with the load its other guests put on the caches and memory it shares
/// with them: the same work list ran up to 1.7 times slower from one
/// second to the next on the VM the README describes, in CPU time as
/// much as in wall time. The probe slows down with it, and the
/// library's times are reported at the probe's reference speed.
///
/// One call is what the workloads do in miniature: a data-dependent walk
/// with writes over a 32 KiB table, lookups and updates in a 16k-entry
/// hash map, small allocations and an AND-popcount over two of sixteen
/// 16 KiB bitsets (under 1 MiB in all). [`Probe::sample`] runs it once
/// untimed, to bring the probe's own data back into the caches, and then
/// times it, so what the library left in the caches hardly changes the
/// timed call.
pub struct Probe {
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    bits: Vec<Vec<u64>>,
    state: u64,
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = Rng::new(0x5EED);
        Probe {
            table: (0..4 * 1024).map(|_| rng.next_u64()).collect(),
            map: (0..16 * 1024).map(|k| (k, rng.next_u64())).collect(),
            bits: (0..16)
                .map(|_| (0..2048).map(|_| rng.next_u64()).collect())
                .collect(),
            state: 1,
        }
    }

    fn once(&mut self) {
        let mix = |x: u64| (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mask = self.table.len() - 1;
        let mut x = self.state;
        for _ in 0..4000 {
            x = mix(x);
            let j = (x >> 40) as usize & mask;
            let y = self.table[j];
            if y & 1 == 0 {
                self.table[j] = y.rotate_left(7) ^ x;
            } else {
                x ^= y >> 3;
            }
        }
        for k in 0..400 {
            x = mix(x);
            let e = self.map.entry(x & 0x3FFF).or_insert(0);
            *e = e.wrapping_add(x);
            if k % 50 == 0 {
                let v: Vec<u64> = (0..64).map(|i| i ^ x).collect();
                x ^= std::hint::black_box(v)[7];
            }
        }
        let n = self.bits.len();
        let (a, b) = (x as usize % n, (x >> 8) as usize % n);
        let copy = self.bits[a].clone();
        let pop: u32 = copy
            .iter()
            .zip(&self.bits[b])
            .enumerate()
            .map(|(i, (u, v))| (u & v | (x >> (i & 31))).count_ones())
            .sum();
        self.bits[a][x as usize % copy.len()] ^= u64::from(pop);
        self.state = std::hint::black_box(x ^ u64::from(pop)) | 1;
    }

    /// Runs the probe once untimed and once timed; the timed call's wall
    /// and CPU time.
    pub fn sample(&mut self) -> Speed {
        self.once();
        let (c0, t0) = (thread_cpu_s(), Instant::now());
        self.once();
        let wall_s = t0.elapsed().as_secs_f64();
        Speed {
            wall_s,
            cpu_s: thread_cpu_s() - c0,
        }
    }
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail statistic: the highest whole percentile (at most 99) whose
/// nearest-rank sample still has at least ten samples beyond it. Returns
/// `(percentile, value, samples beyond)`; with ten or fewer samples no
/// such percentile exists and the maximum is returned as `p100`.
pub fn tail(v: &[f64]) -> (u32, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (100, s.last().copied().unwrap_or(f64::NAN), 0);
    }
    let p = ((100 * (n - 10)) / n).min(99) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, s[rank - 1], n - rank)
}

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same `--seed` always yields the same work list.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xA1C3_5EED_0BE7_C4A5)
    }

    /// The generator for round `round` of a run with workload seed `seed`.
    pub fn for_round(seed: u64, round: usize) -> Rng {
        Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `count` values spread evenly over `lo..=hi`, in ascending order.
    /// The `k`-th lies in the `k`-th of `count` equal slices of the range,
    /// at phase `((turn + k) mod turns + ½) / turns` through it, jittered
    /// by up to a tenth of a slice. Over `turns` consecutive turns each
    /// slice is visited at every phase, so the rounds of a run cover the
    /// range evenly while each round still holds low and high phases alike
    /// — the rounds cost the same. The jitter gives every seed its own
    /// values, yet the costs barely change from one seed to the next.
    pub fn spread(
        &mut self,
        lo: i64,
        hi: i64,
        count: usize,
        turn: usize,
        turns: usize,
    ) -> Vec<i64> {
        let gap = (hi - lo) as f64 / count as f64;
        (0..count)
            .map(|k| {
                let phase = ((turn + k) % turns) as f64 + 0.5;
                let at = lo as f64 + (k as f64 + phase / turns as f64) * gap;
                let jitter = (self.unit() - 0.5) * 0.2 * gap;
                ((at + jitter).round() as i64).clamp(lo, hi)
            })
            .collect()
    }
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder. A disabled recorder reads no clock and
/// stores nothing, so untraced passes run the same code at no cost.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    op_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Recorder {
        Recorder {
            enabled,
            origin,
            op_base: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Offsets the op ids of later spans, so each traced round's
    /// operations keep distinct ids.
    pub fn set_op_base(&mut self, base: u64) {
        self.op_base = base;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span;
    /// pair with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op_base + op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost span, opened by `enter` as `id`.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already measured interval as a root span (for
    /// intervals that end on another thread's schedule, such as a
    /// round-trip).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            op: self.op_base + op,
        });
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder {
            op_base: self.op_base,
            ..Recorder::new(self.enabled, self.origin)
        }
    }

    /// Appends another recorder's spans (one per client thread), keeping
    /// parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the time its direct children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Total (inclusive) time per span name, in nanoseconds.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes the spans as JSON lines: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let (p, value, beyond) = tail(&v);
        assert_eq!((p, value, beyond), (96, 288.0, 12));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 10.0, 10));
    }

    #[test]
    fn spread_values_stay_near_even_spacing() {
        let mut rng = Rng::new(7);
        let v = rng.spread(0, 1000, 4, 0, 1);
        for (k, x) in v.iter().enumerate() {
            let centre = 125 + 250 * k as i64;
            assert!((x - centre).abs() <= 25, "{v:?}");
        }
        // Over two turns each slice is visited at both phases.
        let (a, b) = (rng.spread(0, 1000, 2, 0, 2), rng.spread(0, 1000, 2, 1, 2));
        assert!(
            a[0] < 250 && b[0] >= 250 && a[1] >= 750 && b[1] < 750,
            "{a:?} {b:?}"
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true, Instant::now());
        let outer = rec.enter("outer", 0);
        rec.time("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.exit(outer);
        let own = rec.self_ns();
        let total = rec.total_ns();
        assert_eq!(own["inner"], total["inner"]);
        assert_eq!(own["outer"], total["outer"] - total["inner"]);
        assert!(own["outer"] < total["inner"]);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let id = rec.enter("op", 0);
        assert_eq!(rec.time("leaf", 0, || 7), 7);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }
}
