//! Seeded input generation. The seed fixes the suite op order, the daemon
//! request order and its split across clients, and the edit-recompile
//! kernel constants and edit sequence; the program under test only ever
//! sees the generated inputs.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws made
    /// from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Kernel functions in the edit-recompile module.
pub const EDIT_KERNELS: usize = 12;

/// Independent loop-carried scalars per kernel. Each is a value
/// communication with a small pre-fork closure, so the branch-and-bound
/// partition search dominates the compile; the count sizes one
/// edit-recompile op to roughly 100 ms on a 2-vCPU host.
pub const EDIT_SCALARS: usize = 18;

/// Profiling (train) argument of the edit-recompile module; small, so the
/// interpreter and simulator stay out of the picture.
pub const EDIT_TRAIN_ARG: i64 = 24;

/// Entry function of the edit-recompile module.
pub const EDIT_ENTRY: &str = "main";

/// The seeded edit-recompile module: [`EDIT_KERNELS`] kernels of
/// [`EDIT_SCALARS`] independent recurrences each, summed by `main`.
/// Constants vary with the seed; the loop shapes, and so the analysis
/// work, do not.
pub fn edit_module_source(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut src = String::new();
    for k in 0..EDIT_KERNELS {
        let _ = writeln!(src, "fn k{k}(n: int) -> int {{");
        for j in 0..EDIT_SCALARS {
            let _ = writeln!(src, "    let a{j} = {};", 1 + rng.below(997));
        }
        src.push_str("    for (let i = 0; i < n; i = i + 1) {\n");
        for j in 0..EDIT_SCALARS {
            let mul = 3 + 2 * rng.below(8);
            let modulus = 1009 + 2 * rng.below(500);
            let _ = writeln!(src, "        a{j} = (a{j} * {mul} + i) % {modulus};");
        }
        src.push_str("    }\n    let t = 0;\n");
        for j in 0..EDIT_SCALARS {
            let _ = writeln!(src, "    t = t + a{j};");
        }
        src.push_str("    return t;\n}\n\n");
    }
    src.push_str("fn main(n: int) -> int {\n    let t = 0;\n");
    for k in 0..EDIT_KERNELS {
        let _ = writeln!(src, "    t = t + k{k}(n);");
    }
    src.push_str("    return t;\n}\n");
    src
}

/// One edit of the edit-recompile sequence: kernel `kernel` of the base
/// module is renamed to the fresh name `renamed`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    /// Index of the renamed kernel.
    pub kernel: usize,
    /// The kernel's name in the base module.
    pub original: String,
    /// Its fresh name in this edit.
    pub renamed: String,
}

/// The `round`-th edit for `seed`. Every edit applies to the base source,
/// so relative to a primed cache exactly one function is dirty, and the
/// fresh name guarantees that function misses every cache. A rename keeps
/// the program's result, so the oracle computed in set-up holds for every
/// edit.
pub fn edit_for(seed: u64, round: u64) -> Edit {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D), 2);
    let kernel = rng.below(EDIT_KERNELS);
    Edit {
        kernel,
        original: format!("k{kernel}"),
        renamed: format!("k{kernel}_e{round}"),
    }
}

/// `source` with every identifier `from` renamed to `to`. Matches whole
/// identifiers only: renaming `k1` leaves `k10` alone.
pub fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len() + 8);
    let mut i = 0;
    while let Some(pos) = source[i..].find(from) {
        let start = i + pos;
        let end = start + from.len();
        let whole = (start == 0 || !is_ident(bytes[start - 1]))
            && (end == bytes.len() || !is_ident(bytes[end]));
        out.push_str(&source[i..start]);
        out.push_str(if whole { to } else { from });
        i = end;
    }
    out.push_str(&source[i..]);
    out
}
