//! Golden digests for the class samplers and the instances built from them.
//!
//! Every figure, every served job and every transcript pin starts from
//! `sample_class` draws, so a sampler's exact output — and how many random
//! words it consumes — is part of the contract. These pins cover raw
//! `sample_class` streams (with the generator's next `u64` afterwards, which
//! catches a sampler that returns the right values but consumes a different
//! number of draws) and `DistSpec::instance` labels at n ∈ {1, 48, 2000}.
//! The parameters reach inside and past any tabulated range of each
//! sampler: small and large means, exponents near 1 and far above it.
//!
//! If a change is *meant* to alter a sampler, regenerate every pinned value
//! in this file together: the failure message prints the whole table.

use parallel_ecs::distributions::class_distribution::AnyDistribution;
use parallel_ecs::distributions::ClassDistribution;
use parallel_ecs::rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
use parallel_ecs::service::DistSpec;

/// FNV-1a over a stream of `u64` values, little-endian.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The pinned parameters, with how many raw draws each stream pins (Poisson
/// draws cost about λ random words each, so the large means pin fewer).
const STREAMS: [(DistSpec, usize); 20] = [
    (DistSpec::Uniform(5), 20_000),
    (DistSpec::Geometric(0.02), 20_000),
    (DistSpec::Geometric(0.1), 20_000),
    (DistSpec::Geometric(0.3), 20_000),
    (DistSpec::Geometric(0.5), 20_000),
    (DistSpec::Geometric(0.9), 20_000),
    (DistSpec::Geometric(0.99), 20_000),
    (DistSpec::Poisson(0.5), 20_000),
    (DistSpec::Poisson(4.0), 20_000),
    (DistSpec::Poisson(16.0), 5_000),
    (DistSpec::Poisson(25.0), 5_000),
    (DistSpec::Poisson(65_536.0), 20),
    (DistSpec::Zeta(1.1), 20_000),
    (DistSpec::Zeta(1.5), 20_000),
    (DistSpec::Zeta(2.0), 20_000),
    (DistSpec::Zeta(2.5), 20_000),
    (DistSpec::Zeta(3.0), 20_000),
    (DistSpec::Zeta(8.0), 20_000),
    (DistSpec::Zeta(1024.0), 20_000),
    (DistSpec::Balanced(7), 0),
];

/// The distribution a `DistSpec` samples from, or `None` for `balanced`,
/// which shuffles fixed class sizes instead of calling a sampler.
fn distribution(spec: DistSpec) -> Option<AnyDistribution> {
    match spec {
        DistSpec::Uniform(k) => Some(AnyDistribution::uniform(k)),
        DistSpec::Geometric(p) => Some(AnyDistribution::geometric(p)),
        DistSpec::Poisson(lambda) => Some(AnyDistribution::poisson(lambda)),
        DistSpec::Zeta(s) => Some(AnyDistribution::zeta(s)),
        DistSpec::Balanced(_) => None,
    }
}

/// `(digest of the draws, the generator's next u64)` for `draws` samples.
fn stream(dist: &AnyDistribution, draws: usize, seed: u64) -> (u64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let digest = fnv((0..draws).map(|_| dist.sample_class(&mut rng) as u64));
    (digest, rng.next_u64())
}

/// Digest of `DistSpec::instance(n, seed)`'s first-appearance labels.
fn instance_digest(spec: DistSpec, n: usize, seed: u64) -> u64 {
    let instance = spec.instance(n, seed);
    fnv(instance
        .ground_truth()
        .labels()
        .iter()
        .map(|&label| u64::from(label)))
}

const STREAM_SEED: u64 = 2016;
const INSTANCE_SEED: u64 = 0x5eed;
const INSTANCE_SIZES: [usize; 3] = [1, 48, 2000];

/// Per parameter (in [`STREAMS`] order): the stream digest, the next `u64`
/// after it, and the instance digests at n = 1, 48, 2000.
const PINS: [(u64, u64, [u64; 3]); 20] = [
    (
        0x4e2d47d0662181e4,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0x04e35aa801a0ac05, 0xbdb336942f673f46],
    ), // uniform:5
    (
        0xc09abe3c2d85ff27,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0xe2a88c58ce40a8e5, 0x6e00932eb02f6fa5],
    ), // geometric:0.02
    (
        0x64844c3955df0207,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0x462f64bdb049ebe6, 0x63c9810d83a866e6],
    ), // geometric:0.1
    (
        0xb5d5074e41eaf223,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0x62e0e25a837fa6a4, 0xb6cc07780dd0a386],
    ), // geometric:0.3
    (
        0xfe2d971526afcca2,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0xed6e52a25c4856a4, 0xc3c89c4d8ab5a5ac],
    ), // geometric:0.5
    (
        0xfcc5a7495a88e60e,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0xe5e8017e184d61d6, 0xf0b252292e28c60b],
    ), // geometric:0.9
    (
        0xe682970f99b1c9ea,
        0x815f4a2fc3e9d200,
        [0xa8c7f832281a39c5, 0x38e60905c21669dd, 0x16ae6aba8f674b19],
    ), // geometric:0.99
    (
        0x77ea319116d34561,
        0x749416037e2531a3,
        [0xa8c7f832281a39c5, 0x4dc782c2ce7eed22, 0x773d3a713d50cfe5],
    ), // poisson:0.5
    (
        0x6a6e824da16a852a,
        0xb022bcbb30962734,
        [0xa8c7f832281a39c5, 0x6abd4498c918a942, 0xa278b3049b14e94d],
    ), // poisson:4
    (
        0xa7692957bbf5b356,
        0x389d31a3e36c4d94,
        [0xa8c7f832281a39c5, 0x70068c363ee504c5, 0xd55bec5809808557],
    ), // poisson:16
    (
        0xe0bc87b0e064d592,
        0x0b4661ae3e6c4449,
        [0xa8c7f832281a39c5, 0xa123026c6b8293f1, 0xe7f5485a8627579d],
    ), // poisson:25
    (
        0x209f941360455439,
        0x6fdb2480ac1cbcad,
        [0xa8c7f832281a39c5, 0x087519b0cd824cf3, 0x15884e42a0b1038e],
    ), // poisson:65536
    (
        0xc0194b143d8b6931,
        0xae38f2c2ed274627,
        [0xa8c7f832281a39c5, 0x93453712e4115c28, 0xa92459dc2bd30bdb],
    ), // zeta:1.1
    (
        0x96ba193ae16c21f9,
        0xea87a50ca153bee2,
        [0xa8c7f832281a39c5, 0x53fa98d960b810df, 0x4464eb54d9f82e5e],
    ), // zeta:1.5
    (
        0xc1691d58d2f55a6e,
        0x36026526234df660,
        [0xa8c7f832281a39c5, 0x568b8907f7a4e346, 0xeacc096af01376ca],
    ), // zeta:2
    (
        0xd8cd7bb43a9fa904,
        0xe96fe2194762ecaa,
        [0xa8c7f832281a39c5, 0xd5c54f7bd45cb726, 0x3618b655bd223660],
    ), // zeta:2.5
    (
        0xa0ac0f0eaf4cd8db,
        0xc3b1999d2b0c2625,
        [0xa8c7f832281a39c5, 0x805ab0bcc1969a03, 0xc48ea085bbb5c0a3],
    ), // zeta:3
    (
        0xcad7adc29c80a267,
        0xfdf65075e578e5c7,
        [0xa8c7f832281a39c5, 0xc86ec345c0ee8125, 0xe64ce71475339fe5],
    ), // zeta:8
    (
        0x5d221d5070447725,
        0xfe36266ac3d1e82e,
        [0xa8c7f832281a39c5, 0xc86ec345c0ee8125, 0x2c36c2471ceec525],
    ), // zeta:1024
    (
        0x0000000000000000,
        0x0000000000000000,
        [0xa8c7f832281a39c5, 0xa85f45cb14b09281, 0xdc414f316fa2d161],
    ), // balanced:7
];

#[test]
fn sampler_streams_and_instances_match_their_pins() {
    let mut measured = Vec::new();
    for (spec, draws) in STREAMS {
        let (digest, next) = distribution(spec)
            .map(|dist| stream(&dist, draws, STREAM_SEED))
            .unwrap_or((0, 0));
        let instances = INSTANCE_SIZES.map(|n| instance_digest(spec, n, INSTANCE_SEED));
        measured.push((digest, next, instances));
    }
    let table: String = STREAMS
        .iter()
        .zip(&measured)
        .map(|((spec, _), (digest, next, [a, b, c]))| {
            format!("    ({digest:#018x}, {next:#018x}, [{a:#018x}, {b:#018x}, {c:#018x}]), // {spec}\n")
        })
        .collect();
    assert_eq!(measured, PINS, "measured pins:\n{table}");
}
