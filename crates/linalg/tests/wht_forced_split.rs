//! Runs the blocked Walsh–Hadamard kernel under a non-power-of-two thread count.
//!
//! `RAYON_NUM_THREADS=3` makes phase 1 split the state into
//! `len / next_power_of_two(3) = len / 4` chunks (capped at 2^15) shared unevenly by
//! three threads.  The output must still match the textbook level-by-level transform
//! bit for bit.
//!
//! This is its own integration-test binary so the env var reliably wins the
//! `OnceLock` initialisation race: every test here sets the same value before any
//! parallel call.

use juliqaoa_linalg::walsh::{walsh_hadamard, walsh_hadamard_regions, walsh_hadamard_unnormalized};
use juliqaoa_linalg::{par_threshold, Complex64};

const FORCED_THREADS: usize = 3;

fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", FORCED_THREADS.to_string());
    assert_eq!(
        rayon::current_num_threads(),
        FORCED_THREADS,
        "RAYON_NUM_THREADS must win over hardware detection"
    );
}

/// Every butterfly level over the whole state, then a separate scale pass.
fn textbook(state: &mut [Complex64], scale: Option<f64>) {
    let len = state.len();
    let mut h = 1;
    while h < len {
        for start in (0..len).step_by(2 * h) {
            for i in start..start + h {
                let (a, b) = (state[i], state[i + h]);
                state[i] = a + b;
                state[i + h] = a - b;
            }
        }
        h *= 2;
    }
    if let Some(s) = scale {
        state.iter_mut().for_each(|z| *z = z.scale(s));
    }
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn input(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() - 0.5))
        .collect()
}

#[test]
fn three_threads_match_textbook_bit_for_bit() {
    force_threads();
    for n in [16usize, 17, 18] {
        let len = 1 << n;
        let orig = input(len);

        let mut expected = orig.clone();
        textbook(&mut expected, Some(1.0 / (len as f64).sqrt()));
        let mut got = orig.clone();
        walsh_hadamard(&mut got);
        assert_eq!(bits(&got), bits(&expected), "walsh_hadamard n={n}");

        let mut expected = orig.clone();
        textbook(&mut expected, None);
        let mut got = orig;
        walsh_hadamard_unnormalized(&mut got);
        assert_eq!(bits(&got), bits(&expected), "unnormalized n={n}");
    }
}

#[test]
fn three_threads_split_into_quarter_chunks() {
    force_threads();
    if par_threshold() > 1 << 16 {
        return;
    }
    // 2^16: four 2^14 chunks, then levels 2^14 and 2^15 across them.
    assert_eq!(walsh_hadamard_regions(1 << 16), 3);
    // 2^18: 2^15 chunks (the cache block), then three cross-chunk levels.
    assert_eq!(walsh_hadamard_regions(1 << 18), 4);
}
