//! Statistics, host probes and the span recorder shared by the workloads.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A nearest-rank percentile and the number of samples strictly beyond its
/// rank, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it —
/// a tail figure resting on a handful of samples is noise, not a bound.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    (beyond >= MIN_BEYOND).then(|| (v[rank - 1], beyond))
}

/// Simulated megacycles per host second.
pub fn mcycles_per_s(cycles: u64, wall: Duration) -> f64 {
    cycles as f64 / 1e6 / wall.as_secs_f64()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets the process's peak-RSS mark (VmHWM) to its current RSS by writing
/// `5` to `/proc/self/clear_refs`, so the peak read afterwards belongs to
/// the work that follows rather than to set-up. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

fn status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Milliseconds the host-speed probe takes at the reference speed: its
/// median on a 2-vCPU "Intel Xeon Processor" Firecracker guest outside the
/// host's slow phases. Only the ratio to a measured probe matters; this
/// constant just keeps scaled times close to real milliseconds there.
pub const PROBE_REF_MS: f64 = 5.0;

/// How much more the simulator slows than the probe when co-tenants load
/// the host: host times scale by (reference / probe) to this power. In three
/// interleaved probe-and-simulation series of three to five minutes each,
/// 1.2 gave the smallest spread of ten- and thirty-second medians in every
/// series (2–5%, against 3–11% at 1.0 and 10–58% unscaled).
pub const PROBE_EXPONENT: f64 = 1.2;

const PROBE_STEPS: u64 = 1_000_000;
const PROBE_PROG: usize = 1 << 14;
const PROBE_MEM: usize = 1 << 18;
const PROBE_KEYS: u64 = 1 << 14;

/// A fixed workload whose speed stands for the host's: a bytecode
/// interpreter over a 16K-instruction random program, a 2 MiB memory and a
/// 16K-key hash map — the data-dependent branches, table lookups and
/// hashing the simulator's per-cycle loop is made of.
///
/// Co-tenants on this class of host slow the simulator by up to 2x for tens
/// of seconds at a time, while simple arithmetic loops barely move. The
/// probe moves with the simulator, if somewhat less (see
/// [`PROBE_EXPONENT`]), so dividing a host time by the probe's current
/// slowdown leaves the program's own cost. The probe is benchmark code: no
/// change to the program can change it.
pub struct Probe {
    prog: Vec<(u8, u8, u8, u16)>,
    mem: Vec<u64>,
    hist: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x5eed_u64;
        let prog = (0..PROBE_PROG)
            .map(|_| {
                let r = xorshift(&mut x);
                (
                    (r % 12) as u8,
                    (r >> 8) as u8 & 15,
                    (r >> 16) as u8 & 15,
                    (r >> 24) as u16,
                )
            })
            .collect();
        Probe {
            prog,
            mem: vec![0; PROBE_MEM],
            hist: HashMap::default(),
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Runs the probe three times and returns the median milliseconds, so
    /// that an interrupt during one run does not pass for a slow host.
    pub fn run_ms(&mut self) -> f64 {
        let mut runs = [0.0; 3];
        for r in &mut runs {
            let t = Instant::now();
            std::hint::black_box(self.interpret());
            *r = ms(t.elapsed());
        }
        median(&runs)
    }

    fn interpret(&mut self) -> u64 {
        self.mem.fill(0);
        self.hist.clear();
        let (mem_mask, prog_mask) = (PROBE_MEM - 1, PROBE_PROG - 1);
        let mut reg = [1u64; 16];
        let mut pc = 0usize;
        for _ in 0..PROBE_STEPS {
            let (op, a, b, imm) = self.prog[pc];
            let (a, b) = (a as usize, b as usize);
            match op {
                0 => reg[a] = reg[a].wrapping_add(reg[b]),
                1 => reg[a] = reg[a].wrapping_mul(reg[b] | 1),
                2 => reg[a] ^= reg[b].rotate_left(u32::from(imm) & 63),
                3 => reg[a] = self.mem[(reg[b] as usize ^ imm as usize) & mem_mask],
                4 => self.mem[(reg[a] as usize ^ imm as usize) & mem_mask] = reg[b],
                5 if reg[a] & 1 == 0 => {
                    pc = (pc + imm as usize) & prog_mask;
                    continue;
                }
                6 if reg[a] > reg[b] => {
                    pc = (pc + 3) & prog_mask;
                    continue;
                }
                7 => *self.hist.entry(reg[a] % PROBE_KEYS).or_insert(0) += 1,
                8 => reg[a] = reg[b] >> (imm & 31),
                9 => reg[a] = reg[a].wrapping_sub(u64::from(imm)),
                10 => reg[a] = self.hist.get(&(reg[b] % PROBE_KEYS)).copied().unwrap_or(0),
                11 => reg[a] = reg[a].min(reg[b]).wrapping_add(1),
                _ => {}
            }
            pc = (pc + 1) & prog_mask;
        }
        reg.iter()
            .fold(self.hist.len() as u64, |s, r| s.wrapping_add(*r))
    }
}

/// Scales host times to the reference host speed. It probes at every
/// iteration boundary; an iteration's times are multiplied by
/// [`time_scale`] of the probes on either side.
pub struct HostSpeed {
    probe: Probe,
    last_ms: f64,
    all_ms: Vec<f64>,
}

impl HostSpeed {
    /// Builds the probe and takes the first reading.
    pub fn start() -> Self {
        let mut probe = Probe::default();
        probe.run_ms();
        let last_ms = probe.run_ms();
        HostSpeed {
            probe,
            last_ms,
            all_ms: vec![last_ms],
        }
    }

    /// Probes again and returns the time scale for the interval since the
    /// previous probe.
    pub fn next_scale(&mut self) -> f64 {
        let now = self.probe.run_ms();
        let scale = time_scale(self.last_ms, now);
        self.last_ms = now;
        self.all_ms.push(now);
        scale
    }

    /// The time scale of the whole run, from the median probe.
    pub fn run_scale(&self) -> f64 {
        let m = median(&self.all_ms);
        time_scale(m, m)
    }

    /// Every probe reading, for the log.
    pub fn readings(&self) -> &[f64] {
        &self.all_ms
    }
}

/// The factor that scales a host time measured between probes of `before`
/// and `after` milliseconds to the reference speed: [`PROBE_REF_MS`] over
/// their geometric mean, to the power [`PROBE_EXPONENT`].
pub fn time_scale(before_ms: f64, after_ms: f64) -> f64 {
    (PROBE_REF_MS / (before_ms * after_ms).sqrt()).powf(PROBE_EXPONENT)
}

/// Shuffles `items` by Fisher–Yates, drawing from the SplitMix64 stream
/// whose position is `state`: a stream started from the same seed always
/// gives the same sequence of orders.
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Spans around calls into the program's layers, kept in memory and written
/// out when the run ends. A disabled recorder only runs the closures, so the
/// untraced path is the same code without the clock reads.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: Option<Instant>,
}

/// One timed call: the layer entry point it wraps, when it ran, and the
/// span that enclosed it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.bank_run`.
    pub name: &'static str,
    /// Operation (job or guide loop) the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

impl Tracer {
    /// A recorder that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: enabled.then(Instant::now),
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if let Some(epoch) = self.epoch {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                op,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: self.open.last().copied(),
            });
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name` that started at or
    /// after index `from` (one workload iteration's share of the record).
    pub fn total_ms(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                sp.name, sp.op, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // Rank ceil(0.95 * 199) = 190 leaves 9 beyond: not reportable.
        assert_eq!(percentile(&xs, 95.0), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some((190.0, 10)));
        assert_eq!(percentile(&xs, 50.0), Some((100.0, 100)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn mcycles_arithmetic() {
        let r = mcycles_per_s(3_000_000, Duration::from_millis(1500));
        assert!((r - 2.0).abs() < 1e-12);
        assert!((ms(Duration::from_micros(2500)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_scale_divides_out_the_probe_slowdown() {
        assert!((time_scale(PROBE_REF_MS, PROBE_REF_MS) - 1.0).abs() < 1e-12);
        // A probe twice as slow on both sides scales by 2^-PROBE_EXPONENT.
        let half = 0.5f64.powf(PROBE_EXPONENT);
        assert!((time_scale(2.0 * PROBE_REF_MS, 2.0 * PROBE_REF_MS) - half).abs() < 1e-12);
        assert!((time_scale(PROBE_REF_MS, 4.0 * PROBE_REF_MS) - half).abs() < 1e-12);
    }

    #[test]
    fn probe_repeats_its_work() {
        let mut p = Probe::default();
        let a = p.interpret();
        assert_eq!(a, p.interpret());
        assert_eq!(a, Probe::default().interpret());
        assert!(p.run_ms() > 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..27).collect();
        let mut b = a.clone();
        let (mut sa, mut sb) = (7, 7);
        shuffle(&mut a, &mut sa);
        shuffle(&mut b, &mut sb);
        assert_eq!(a, b);
        let mut c = a.clone();
        shuffle(&mut c, &mut sa);
        assert_ne!(a, c, "the stream moves on between calls");
        let mut d: Vec<u32> = (0..27).collect();
        shuffle(&mut d, &mut 8);
        assert_ne!(a, d);
        a.sort_unstable();
        assert_eq!(a, (0..27).collect::<Vec<_>>());
    }

    #[test]
    fn status_parsing_reads_kib() {
        let status = "Name:\tx\nVmHWM:\t   46728 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(46_728));
        assert_eq!(status_kib(status, "VmPeak:"), None);
    }

    #[test]
    fn peak_rss_reset_drops_an_earlier_peak() {
        // Touch 64 MiB, free it, then reset: the new peak must sit well
        // below the old one. Skipped where the kernel refuses the reset.
        let before = {
            let big = vec![1u8; 64 << 20];
            std::hint::black_box(&big);
            peak_rss_mib().expect("procfs status")
        };
        if !reset_peak_rss() {
            eprintln!("clear_refs unavailable; reset not testable here");
            return;
        }
        let after = peak_rss_mib().expect("procfs status");
        assert!(after + 32.0 < before, "peak {before} MiB -> {after} MiB");
    }

    #[test]
    fn tracer_nests_and_totals_spans() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(t.total_ms("inner", 0) <= t.total_ms("outer", 0));
        assert_eq!(t.to_jsonl().lines().count(), 2);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
