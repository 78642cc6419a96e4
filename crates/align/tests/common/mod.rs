//! Inputs shared by the kernel test suites.

use dibella_align::Scoring;

/// `len` pseudo-random bases from a xorshift stream seeded with `seed`.
pub fn bases(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state % 4) as usize]
        })
        .collect()
}

/// Scoring under which [`tandem_insertion`] drives x-drop cells far
/// below the best score: every move costs or earns 64.
pub const GUARD_SCORING: Scoring = Scoring { match_score: 64, mismatch: -64, gap: -64 };

/// Drop-off for [`tandem_insertion`]: the largest the lane kernel runs.
pub const GUARD_X: i32 = 4096;

/// Three copies of a 200-base unit, and the same with 100 foreign bases
/// inserted 100 bases in. Past the insertion two diagonals 100 apart both
/// stay within `GUARD_X` of the best score, and the cells between them
/// sink more than 8192 below it — deep enough to trip the lane kernel's
/// floor partway through the extension.
pub fn tandem_insertion() -> (Vec<u8>, Vec<u8>) {
    let unit = bases(200, 0x9E37_79B9_7F4A_7C15);
    let s: Vec<u8> = unit.iter().cycle().take(600).copied().collect();
    let mut t = s[..100].to_vec();
    t.extend(bases(100, 7));
    t.extend_from_slice(&s[100..]);
    (s, t)
}
