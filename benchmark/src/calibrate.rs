//! Host-speed reference kernel.
//!
//! The benchmark runs on small shared hosts with a neighbour on the sibling
//! hyperthread. Measured on the 2-core reference host with a fixed integer
//! kernel: the host is either quiet or busy, busy costs wide integer code
//! (which is what the system under test is) a third to a half of its
//! throughput, the two states alternate within tens of milliseconds
//! (typically 10 ms quiet, 40 ms busy), and the share of busy time drifts
//! between a fifth and nearly all over minutes. No statistic over the
//! rounds of one run can remove that — every round of a ten-second window
//! may be slow — and it is far larger than any regression bound worth
//! having. Over ten runs with ten seeds, the quartile distance of raw
//! `ops_per_s` was 15 – 40 % of the median on every workload.
//!
//! What can be done is to measure the host itself, right next to the work,
//! with a fixed piece of code that has nothing to do with the program under
//! test, and report the work in *reference-speed* time: host time × the
//! host speed the yardstick saw in the same few milliseconds. On the same
//! ten runs that brings the quartile distance of `ops_per_s` to 3 – 11 %.
//! What is left is the part of the neighbour's effect the yardstick does
//! not share (cache and memory pressure, which this kernel does not feel):
//! a busy host slows `rpc_steady` 1.55×, `store_reads` 1.8× and this kernel
//! 1.7×. Fitting an exponent per workload, keeping only the quietest round
//! of every segment, and a two-state model of the host were all tried on
//! recorded segment data; none was steadier than the plain product, so the
//! plain product it is.
//!
//! The kernel is half **wide** work (four independent integer chains, a
//! branchy little interpreter, a hash) and half a single **dependent**
//! multiply chain. A dependent chain alone — a "spin loop" — is
//! latency-bound, barely notices a busy sibling, and under-corrects. Wide
//! work alone loses more than the system does and over-corrects. The
//! kernel touches a few hundred bytes and allocates nothing, so it runs
//! the same whether the caches are warm or were just emptied by the
//! workload, and it shares no code with `rafda`: an optimisation of the
//! system cannot speed the yardstick up and cancel itself out.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one reference burst (≈ 0.2 ms on the reference host).
pub const BURST_ITERS: u64 = 600;

/// Nanoseconds one burst takes on the reference host while it is quiet
/// (measured: the quiet-state median over a hundred runs), so that
/// reference-speed time is quiet-host time there. Elsewhere it is only a
/// scale factor: it turns a measured burst time into a dimensionless host
/// speed. Never re-tune it to make a number look better; a commit is
/// compared with its parent on the same constant.
pub const NOMINAL_BURST_NS: f64 = 158_700.0;

/// Independent-chain rounds per iteration (the wide half).
const WIDE_ROUNDS: u64 = 250;
/// Dependent multiply-add rounds per iteration (the latency-bound half).
const CHAIN_ROUNDS: u64 = 125;

#[derive(Clone, Copy)]
enum Insn {
    Push(i64),
    Add,
    Mul,
    Dup,
    Swap,
    JumpIfOdd(usize),
    Store(usize),
    Load(usize),
}

const PROGRAM: [Insn; 12] = [
    Insn::Load(0),
    Insn::Push(3),
    Insn::Mul,
    Insn::Dup,
    Insn::JumpIfOdd(7),
    Insn::Push(1),
    Insn::Add,
    Insn::Load(1),
    Insn::Swap,
    Insn::Add,
    Insn::Dup,
    Insn::Store(1),
];

/// Fixed work, fixed inputs. Returns a checksum so none of it can be
/// optimised away.
pub fn kernel(iters: u64) -> u64 {
    let mut stack = [0i64; 16];
    let mut locals = [0i64; 2];
    let mut frame = [0u8; 64];
    let mut checksum = 0u64;
    for i in 0..iters {
        // Four independent integer chains: wide, port-hungry work of the
        // kind a busy sibling thread slows most.
        let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (mut a, mut b, mut c, mut d) = (r, r >> 7, r >> 13, r >> 29);
        for k in 0..black_box(WIDE_ROUNDS) {
            a = a.wrapping_add(k);
            b ^= k.rotate_left(7);
            c = c.wrapping_add(b & 0xff);
            d = d.wrapping_sub(a | 1);
        }
        checksum = checksum.wrapping_add(a ^ b ^ c ^ d);

        // One dependent chain: latency-bound, nearly blind to the sibling.
        let mut x = r | 1;
        for k in 0..black_box(CHAIN_ROUNDS) {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
        }
        checksum = checksum.wrapping_add(x);

        // A branchy stack-machine loop, the shape of an interpreter.
        locals[0] = (r % 1000) as i64;
        let (mut sp, mut pc) = (0usize, 0usize);
        while pc < PROGRAM.len() {
            match PROGRAM[pc] {
                Insn::Push(v) => {
                    stack[sp] = v;
                    sp += 1;
                }
                Insn::Add => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].wrapping_add(stack[sp]);
                }
                Insn::Mul => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].wrapping_mul(stack[sp]);
                }
                Insn::Dup => {
                    stack[sp] = stack[sp - 1];
                    sp += 1;
                }
                Insn::Swap => stack.swap(sp - 1, sp - 2),
                Insn::JumpIfOdd(target) => {
                    sp -= 1;
                    if stack[sp] & 1 == 1 {
                        pc = target;
                        continue;
                    }
                }
                Insn::Store(slot) => {
                    sp -= 1;
                    locals[slot] = stack[sp];
                }
                Insn::Load(slot) => {
                    stack[sp] = locals[slot];
                    sp += 1;
                }
            }
            pc += 1;
        }
        checksum = checksum.wrapping_add(stack[sp - 1] as u64);

        // Hash a frame-sized buffer, the shape of a codec or a table key.
        frame[(i % 64) as usize] = r as u8;
        let mut hasher = DefaultHasher::new();
        hasher.write(&frame);
        checksum = checksum.wrapping_add(hasher.finish());
    }
    checksum
}

/// Time one reference burst, nanoseconds.
pub fn burst_ns() -> u64 {
    let start = Instant::now();
    black_box(kernel(black_box(BURST_ITERS)));
    start.elapsed().as_nanos() as u64
}

/// Host speed over a window bracketed by two bursts: nominal burst time ÷
/// mean measured burst time (1.0 = the reference host while quiet; 0.6 =
/// the host is running at 60 % of that).
pub fn host_speed(burst_before_ns: u64, burst_after_ns: u64) -> f64 {
    NOMINAL_BURST_NS / ((burst_before_ns + burst_after_ns) as f64 / 2.0)
}

/// The wall of one replay, measured segment by segment with a reference
/// burst between segments (the bursts themselves are not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayWall {
    /// Host nanoseconds the replay took.
    pub raw_ns: f64,
    /// The same with each segment scaled by the host speed its two
    /// bracketing bursts saw: nanoseconds on the reference-speed host.
    pub reference_ns: f64,
}

impl ReplayWall {
    /// Add one segment of `raw_ns` host nanoseconds seen at `speed`.
    pub fn add(&mut self, raw_ns: f64, speed: f64) {
        self.raw_ns += raw_ns;
        self.reference_ns += raw_ns * speed;
    }

    /// Time-weighted host speed over the replay (reference ÷ raw): the
    /// factor that turns a host-time figure of this replay into
    /// reference-speed time.
    pub fn host_speed(&self) -> f64 {
        self.reference_ns / self.raw_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_a_pure_function_of_its_iteration_count() {
        assert_eq!(kernel(200), kernel(200));
        assert_ne!(kernel(200), kernel(201));
    }

    #[test]
    fn host_speed_is_nominal_over_mean_burst() {
        let nominal = NOMINAL_BURST_NS as u64;
        assert_eq!(host_speed(nominal, nominal), 1.0);
        assert_eq!(host_speed(2 * nominal, 2 * nominal), 0.5);
        assert_eq!(host_speed(nominal - 50_000, nominal + 50_000), 1.0);
    }

    #[test]
    fn a_replay_wall_is_the_speed_weighted_sum_of_its_segments() {
        let mut wall = ReplayWall::default();
        wall.add(1_000.0, 1.0);
        wall.add(3_000.0, 0.5);
        assert_eq!(wall.raw_ns, 4_000.0);
        assert_eq!(wall.reference_ns, 2_500.0);
        assert_eq!(wall.host_speed(), 0.625);
    }
}
