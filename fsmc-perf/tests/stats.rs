use fsmc_perf::stats::{median, percentile, quartiles, tail, tail_level};

#[test]
fn tail_level_is_the_highest_with_ten_samples_beyond() {
    assert_eq!(tail_level(39), None);
    assert_eq!(tail_level(40), Some(75.0));
    assert_eq!(tail_level(50), Some(80.0));
    assert_eq!(tail_level(144), Some(90.0));
    assert_eq!(tail_level(199), Some(90.0));
    assert_eq!(tail_level(200), Some(95.0));
    assert_eq!(tail_level(216), Some(95.0));
    assert_eq!(tail_level(999), Some(95.0));
    assert_eq!(tail_level(1000), Some(99.0));
    assert_eq!(tail_level(1728), Some(99.0));
    assert_eq!(tail_level(10_000), Some(99.9));
}

#[test]
fn every_reported_tail_has_ten_samples_beyond_it() {
    for n in 40..3000usize {
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let (level, value) = tail(&v).expect("n >= 40");
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert!(beyond >= 9, "n={n} p{level}: {beyond} beyond");
        assert!((n as f64) * (100.0 - level) / 100.0 >= 10.0);
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&v), 2.5);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 100.0), 4.0);
    assert!(percentile(&[], 50.0).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
}
