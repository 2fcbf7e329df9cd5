//! The stand-in behaves like rayon where rpb depends on it.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

#[test]
fn install_reports_width_and_runs_on_a_worker() {
    for n in [1, 2, 5] {
        let p = pool(n);
        assert_eq!(p.install(rayon::current_num_threads), n);
        assert!(p.install(|| rayon::current_thread_index().unwrap() < n));
    }
    assert_eq!(rayon::current_thread_index(), None);
}

#[test]
fn collect_keeps_order_for_indexed_and_unindexed_chains() {
    pool(3).install(|| {
        let n = 100_000usize;
        let squares: Vec<usize> = (0..n).into_par_iter().map(|i| i * i).collect();
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
        let evens: Vec<usize> = (0..n).into_par_iter().filter(|i| i % 2 == 0).collect();
        assert_eq!(evens, (0..n).step_by(2).collect::<Vec<_>>());
        let pairs: Vec<(usize, u8)> = vec![7u8; n].par_iter().copied().enumerate().collect();
        assert!(pairs
            .iter()
            .enumerate()
            .all(|(i, &(j, b))| i == j && b == 7));
        let flat: Vec<usize> = (0..1000usize)
            .into_par_iter()
            .flat_map_iter(|i| [i, i])
            .collect();
        assert_eq!(flat.len(), 2000);
        assert!(flat.chunks(2).enumerate().all(|(i, c)| c == [i, i]));
        let wide: Vec<u64> = (5u64..5 + n as u64).into_par_iter().collect();
        assert_eq!(wide[n - 1], 4 + n as u64);
    });
}

#[test]
fn reductions_agree_with_sequential() {
    pool(4).install(|| {
        let v: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 1000)
            .collect();
        assert_eq!(
            v.par_iter().copied().reduce_with(|a, b| a + b),
            Some(v.iter().sum::<u64>())
        );
        assert_eq!(v.par_iter().copied().min(), v.iter().copied().min());
        assert_eq!(
            v.par_iter().filter(|&&x| x == 7).count(),
            v.iter().filter(|&&x| x == 7).count()
        );
        assert_eq!(
            v.par_iter().copied().reduce(|| 0, |a, b| a ^ b),
            v.iter().fold(0, |a, b| a ^ b)
        );
        assert_eq!(
            v.par_iter().find_map_any(|&x| (x == 999).then_some(x)),
            v.contains(&999).then_some(999)
        );
        assert_eq!(v.par_iter().find_any(|&&x| x == 1000), None);
        let hit = v.par_iter().position_any(|&x| x == v[12345]).unwrap();
        assert_eq!(v[hit], v[12345]);
        assert_eq!(
            v.par_windows(2).filter(|w| w[0] <= w[1]).count(),
            v.windows(2).filter(|w| w[0] <= w[1]).count()
        );
    });
}

#[test]
fn mutation_through_chunks_zip_and_sort() {
    pool(2).install(|| {
        let mut v = vec![0u32; 10_001];
        v.par_chunks_mut(100)
            .enumerate()
            .for_each(|(c, chunk)| chunk.fill(c as u32));
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i / 100) as u32));
        let w: Vec<u32> = (0..10_001).collect();
        v.par_iter_mut()
            .zip(w.par_iter())
            .for_each(|(a, &b)| *a += b);
        assert!(v
            .iter()
            .enumerate()
            .all(|(i, &x)| x == (i / 100 + i) as u32));
        let mut keys: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 40)
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        keys.par_sort_unstable();
        assert_eq!(keys, expect);
    });
}

#[test]
fn join_and_scope_run_everything_and_propagate_panics() {
    let p = pool(2);
    let (a, b) = p.install(|| rayon::join(|| (0..1000).sum::<u32>(), || 7));
    assert_eq!((a, b), (499_500, 7));
    let count = AtomicUsize::new(0);
    p.install(|| {
        rayon::scope(|s| {
            for _ in 0..64 {
                s.spawn(|s| {
                    count.fetch_add(1, Ordering::Relaxed);
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        })
    });
    assert_eq!(count.load(Ordering::Relaxed), 128);
    let caught =
        std::panic::catch_unwind(|| pool(2).install(|| rayon::join(|| 1, || panic!("right side"))));
    assert!(caught.is_err());
    let caught = std::panic::catch_unwind(|| {
        pool(2).install(|| rayon::scope(|s| s.spawn(|_| panic!("spawned"))))
    });
    assert!(caught.is_err());
}

#[test]
fn blocked_tasks_do_not_starve_a_scope_as_wide_as_the_pool() {
    // The pipeline skeletons park one task per worker on channels.
    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(1);
    let total = pool(2).install(move || {
        let mut sum = 0;
        rayon::scope(|s| {
            s.spawn(move |_| (0..100).for_each(|i| tx.send(i).unwrap()));
            let sum = &mut sum;
            s.spawn(move |_| *sum = rx.iter().sum::<u32>());
        });
        sum
    });
    assert_eq!(total, 4950);
}
