//! Stencil computations — the remaining "present" pattern of the paper's
//! §7.1 coverage list not exercised elsewhere in the suite.
//!
//! A stencil is regular parallelism par excellence: every output cell is
//! a function of a static neighbourhood of the *previous* grid, so a
//! double-buffered sweep is pure `Stride`/`Block` writes over reads of an
//! immutable snapshot — fearless in safe Rust + Rayon.

use rayon::prelude::*;

/// One Jacobi sweep of the 5-point Laplace stencil over a `rows × cols`
/// row-major grid: interior cells become the average of their 4
/// neighbours; boundary cells are fixed (Dirichlet).
///
/// # Panics
/// Panics if `input`/`output` lengths differ from `rows * cols`.
pub fn jacobi_step(input: &[f64], output: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(input.len(), rows * cols, "input shape mismatch");
    assert_eq!(output.len(), rows * cols, "output shape mismatch");
    output
        .par_chunks_mut(cols)
        .enumerate()
        .for_each(|(r, out_row)| {
            if r == 0 || r == rows - 1 {
                out_row.copy_from_slice(&input[r * cols..(r + 1) * cols]);
                return;
            }
            out_row[0] = input[r * cols];
            out_row[cols - 1] = input[r * cols + cols - 1];
            // `c` also places the four neighbours in `input`.
            #[allow(clippy::needless_range_loop)]
            for c in 1..cols - 1 {
                let i = r * cols + c;
                out_row[c] =
                    0.25 * (input[i - 1] + input[i + 1] + input[i - cols] + input[i + cols]);
            }
        });
}

/// Runs `steps` Jacobi sweeps (double-buffered); returns the final grid
/// and the maximum absolute change of the last sweep (a convergence
/// proxy).
pub fn jacobi(grid: &[f64], rows: usize, cols: usize, steps: usize) -> (Vec<f64>, f64) {
    let mut a = grid.to_vec();
    let mut b = vec![0.0; grid.len()];
    for _ in 0..steps {
        jacobi_step(&a, &mut b, rows, cols);
        std::mem::swap(&mut a, &mut b);
    }
    let delta = a
        .par_iter()
        .zip(b.par_iter())
        .map(|(x, y)| (x - y).abs())
        .reduce(|| 0.0, f64::max);
    (a, if steps == 0 { 0.0 } else { delta })
}

/// Sequential reference sweep.
pub fn jacobi_step_seq(input: &[f64], output: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(input.len(), rows * cols);
    assert_eq!(output.len(), rows * cols);
    output.copy_from_slice(input);
    for r in 1..rows - 1 {
        for c in 1..cols - 1 {
            let i = r * cols + c;
            output[i] = 0.25 * (input[i - 1] + input[i + 1] + input[i - cols] + input[i + cols]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_edge_grid(rows: usize, cols: usize) -> Vec<f64> {
        let mut g = vec![0.0; rows * cols];
        g[..cols].fill(100.0); // top boundary held hot
        g
    }

    #[test]
    fn parallel_matches_sequential() {
        let (rows, cols) = (64, 96);
        let grid = hot_edge_grid(rows, cols);
        let mut par = vec![0.0; rows * cols];
        let mut seq = vec![0.0; rows * cols];
        jacobi_step(&grid, &mut par, rows, cols);
        jacobi_step_seq(&grid, &mut seq, rows, cols);
        assert_eq!(par, seq);
    }

    #[test]
    fn boundaries_are_fixed() {
        let (rows, cols) = (16, 16);
        let grid = hot_edge_grid(rows, cols);
        let (out, _) = jacobi(&grid, rows, cols, 25);
        for c in 0..cols {
            assert_eq!(out[c], 100.0, "top boundary moved");
            assert_eq!(out[(rows - 1) * cols + c], 0.0, "bottom boundary moved");
        }
    }

    #[test]
    fn heat_diffuses_monotonically_from_hot_edge() {
        let (rows, cols) = (32, 32);
        let grid = hot_edge_grid(rows, cols);
        let (out, _) = jacobi(&grid, rows, cols, 200);
        // Column centre: temperature decreases away from the hot edge.
        let mid = cols / 2;
        for r in 1..rows - 1 {
            let above = out[(r - 1) * cols + mid];
            let here = out[r * cols + mid];
            assert!(above >= here - 1e-9, "non-monotone at row {r}");
        }
        // Interior stays within the boundary values (maximum principle).
        assert!(out.iter().all(|&x| (-1e-9..=100.0 + 1e-9).contains(&x)));
    }

    #[test]
    fn converges_toward_fixed_point() {
        let (rows, cols) = (24, 24);
        let grid = hot_edge_grid(rows, cols);
        let (_, d_early) = jacobi(&grid, rows, cols, 10);
        let (_, d_late) = jacobi(&grid, rows, cols, 500);
        assert!(d_late < d_early, "not converging: {d_late} !< {d_early}");
    }

    #[test]
    fn zero_steps_is_identity() {
        let grid = hot_edge_grid(8, 8);
        let (out, d) = jacobi(&grid, 8, 8, 0);
        assert_eq!(out, grid);
        assert_eq!(d, 0.0);
    }
}
