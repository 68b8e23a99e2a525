//! The host cost model: Rau's Section 7 method turned on the simulator.
//! Per-op host nanoseconds are regressed on the machine's own exact event
//! counts by least squares; the fitted coefficients are host ns per event.

/// The event counts a row is regressed on, in coefficient order.
pub const FEATURES: [&str; 7] = [
    "decoded",
    "short_word",
    "routine_word",
    "lookup",
    "fill",
    "instr",
    "source_byte",
];

/// One op: its exact counts (in [`FEATURES`] order) and measured host ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub counts: [f64; 7],
    pub ns: f64,
}

/// A fitted model: one ns coefficient per feature plus a per-op intercept.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    pub coef: [f64; 7],
    pub intercept: f64,
}

impl Fit {
    pub fn predict(&self, counts: &[f64; 7]) -> f64 {
        self.intercept
            + self
                .coef
                .iter()
                .zip(counts)
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }

    /// Predicted minus measured total ns over `rows`, as a share of the
    /// measured total.
    pub fn residual(&self, rows: &[Row]) -> f64 {
        let measured: f64 = rows.iter().map(|r| r.ns).sum();
        let predicted: f64 = rows.iter().map(|r| self.predict(&r.counts)).sum();
        crate::stats::ratio(predicted - measured, measured)
    }
}

/// Least squares with an intercept, each row weighted by its inverse
/// measured time so short and long ops count alike, and every coefficient
/// kept non-negative: a feature whose coefficient comes out negative is
/// dropped and the rest refitted. The counts are exactly collinear
/// (`instr = lookup + decoded - fill` in every mode), so a small ridge
/// term on the column-scaled system picks the smallest-norm split among
/// equally good fits.
pub fn fit(rows: &[Row]) -> Fit {
    let mut active = [true; K];
    loop {
        let beta = fit_active(rows, &active);
        let worst = (0..K)
            .filter(|&i| active[i] && beta[i] < 0.0)
            .min_by(|&a, &b| beta[a].total_cmp(&beta[b]));
        match worst {
            Some(i) => active[i] = false,
            None => {
                let mut coef = [0.0; 7];
                coef.copy_from_slice(&beta[..7]);
                return Fit {
                    coef,
                    intercept: beta[7],
                };
            }
        }
    }
}

/// 7 features + intercept.
const K: usize = 8;

fn fit_active(rows: &[Row], active: &[bool; K]) -> [f64; K] {
    let design = |r: &Row| {
        let mut x = [1.0; K];
        x[..7].copy_from_slice(&r.counts);
        for (v, &on) in x.iter_mut().zip(active) {
            if !on {
                *v = 0.0;
            }
        }
        let w = if r.ns > 0.0 { 1.0 / r.ns } else { 1.0 };
        (x.map(|v| v * w), r.ns * w)
    };
    let mut scale = [0.0f64; K];
    for r in rows {
        for (s, x) in scale.iter_mut().zip(design(r).0) {
            *s = s.max(x.abs());
        }
    }
    for s in &mut scale {
        if *s == 0.0 {
            *s = 1.0;
        }
    }
    let mut a = [[0.0f64; K + 1]; K];
    for r in rows {
        let (x, y) = design(r);
        for i in 0..K {
            let xi = x[i] / scale[i];
            for j in 0..K {
                a[i][j] += xi * x[j] / scale[j];
            }
            a[i][K] += xi * y;
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += 1e-9 * rows.len().max(1) as f64;
    }
    let beta = solve(a);
    let mut out = [0.0; K];
    for i in 0..K {
        out[i] = if active[i] { beta[i] / scale[i] } else { 0.0 };
    }
    out
}

/// Gaussian elimination with partial pivoting on an augmented matrix.
fn solve<const K: usize, const W: usize>(mut a: [[f64; W]; K]) -> [f64; K] {
    for col in 0..K {
        let pivot = (col..K)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-300 {
            continue;
        }
        let pivot_row = a[col];
        for (r, row) in a.iter_mut().enumerate() {
            let f = row[col] / p;
            if r != col && f != 0.0 {
                for (x, &y) in row.iter_mut().zip(&pivot_row).skip(col) {
                    *x -= f * y;
                }
            }
        }
    }
    let mut x = [0.0; K];
    for i in 0..K {
        x[i] = if a[i][i].abs() < 1e-300 {
            0.0
        } else {
            a[i][K] / a[i][i]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Rng;

    #[test]
    fn fit_recovers_known_coefficients() {
        let truth = [5.0, 2.0, 1.5, 3.0, 40.0, 7.0, 0.25];
        let intercept = 1200.0;
        let mut rng = Rng::new(11);
        let rows: Vec<Row> = (0..64)
            .map(|_| {
                let mut counts = [0.0; 7];
                for c in &mut counts {
                    *c = rng.below(100_000) as f64;
                }
                let ns = intercept + truth.iter().zip(&counts).map(|(a, b)| a * b).sum::<f64>();
                Row { counts, ns }
            })
            .collect();
        let f = fit(&rows);
        for (got, want) in f.coef.iter().zip(truth) {
            assert!((got - want).abs() < 1e-4 * want, "{got} vs {want}");
        }
        assert!(
            (f.intercept - intercept).abs() < 1e-4 * intercept,
            "{}",
            f.intercept
        );
        assert!(f.residual(&rows).abs() < 1e-6);
    }

    #[test]
    fn fit_keeps_coefficients_non_negative() {
        // The truth has a negative per-op term; the fit may not.
        let rows: Vec<Row> = (1..30)
            .map(|i| {
                let x = f64::from(i) * 100.0;
                Row {
                    counts: [x, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    ns: 4.0 * x - 50.0,
                }
            })
            .collect();
        let f = fit(&rows);
        assert!(f.coef.iter().all(|&c| c >= 0.0) && f.intercept >= 0.0);
        assert!((f.coef[0] - 4.0).abs() < 0.5, "{}", f.coef[0]);
    }

    #[test]
    fn fit_tolerates_a_feature_that_never_varies() {
        let rows: Vec<Row> = (1..20)
            .map(|i| {
                let x = f64::from(i);
                Row {
                    counts: [x, 0.0, 0.0, 0.0, 0.0, x * x, 0.0],
                    ns: 3.0 * x + 0.5 * x * x + 10.0,
                }
            })
            .collect();
        let f = fit(&rows);
        assert!((f.coef[0] - 3.0).abs() < 1e-4);
        assert!((f.coef[5] - 0.5).abs() < 1e-4);
        assert_eq!(f.coef[1], 0.0);
        assert!(f.predict(&rows[3].counts).is_finite());
    }

    #[test]
    fn residual_is_signed_share_of_measured() {
        let f = Fit {
            coef: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            intercept: 0.0,
        };
        let rows = [Row {
            counts: [110.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ns: 100.0,
        }];
        assert!((f.residual(&rows) - 0.1).abs() < 1e-12);
    }
}
