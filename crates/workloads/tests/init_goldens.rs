//! Pins every generator's initial data: one FNV-1a digest per kernel
//! set over each array's name, declared length and init words, at both
//! scales. The digests were recorded before the generators collected
//! their data straight into the kernel's buffers, so any change in how
//! the data is drawn or stored shows up here by name.

use hsim_compiler::Kernel;
use hsim_workloads::{
    barrier, cg, ep, ft, is, lock, mg, microbench, ping_pong, queue, request_serving, sp,
    MicrobenchConfig, Scale,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of the kernels' names, array declarations and init words.
fn digest<'a>(kernels: impl IntoIterator<Item = &'a Kernel>) -> u64 {
    let mut h = FNV_OFFSET;
    for k in kernels {
        h = fnv(h, k.name.as_bytes());
        for (decl, init) in k.arrays.iter().zip(&k.init) {
            h = fnv(h, decl.name.as_bytes());
            h = fnv(h, &decl.len.to_le_bytes());
            h = fnv(h, &(init.len() as u64).to_le_bytes());
            for w in init.iter() {
                h = fnv(h, &w.to_le_bytes());
            }
        }
    }
    h
}

/// Every generator at one scale, labelled.
fn digests(scale: Scale) -> Vec<(String, u64)> {
    let tag = |name: &str| format!("{name}@{scale:?}");
    let mut out = Vec::new();
    for (name, gen) in [
        ("cg", cg as fn(Scale) -> Kernel),
        ("ep", ep),
        ("ft", ft),
        ("is", is),
        ("mg", mg),
        ("sp", sp),
    ] {
        out.push((tag(name), digest([&gen(scale)])));
    }
    for w in [
        ping_pong(scale, 4),
        queue(scale, 4, 64),
        lock(scale, 4),
        barrier(scale, 4),
    ] {
        out.push((tag(&w.name), digest(&w.kernels)));
    }
    out.push((tag("serve"), digest(&request_serving(scale, 4).kernels)));
    let n = scale.pick(1000, MicrobenchConfig::default().n);
    let mb = microbench(&MicrobenchConfig {
        n,
        ..MicrobenchConfig::default()
    });
    out.push((tag("microbench"), digest([&mb])));
    out
}

fn check(scale: Scale, expected: &[(&str, u64)]) {
    let got = digests(scale);
    let want: Vec<(String, u64)> = expected.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(
        got,
        want,
        "init data changed at {scale:?}; now:\n{}",
        got.iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect::<String>()
    );
}

#[test]
fn test_scale_init_data_is_pinned() {
    check(
        Scale::Test,
        &[
            ("cg@Test", 0x1dd523f917d156f6),
            ("ep@Test", 0x1d3c00d4a9901259),
            ("ft@Test", 0xaefc3674aeb6a9f7),
            ("is@Test", 0xf4c733ee05462f11),
            ("mg@Test", 0xd3a838d0a21f0d69),
            ("sp@Test", 0xf6b527d6aa492dd5),
            ("pingpong@Test", 0xef8e4bbe157626f5),
            ("queue@Test", 0x8a809bd2d230e167),
            ("lock@Test", 0x5f134dbe991b5981),
            ("barrier@Test", 0xa991321c2643b5a1),
            ("serve@Test", 0xee815bb4f6824f8b),
            ("microbench@Test", 0xf4f1f6ae82ced8cb),
        ],
    );
}

#[test]
fn paper_scale_init_data_is_pinned() {
    check(
        Scale::Paper,
        &[
            ("cg@Paper", 0x248ccb23762836ee),
            ("ep@Paper", 0xb6e65afc0660c1b7),
            ("ft@Paper", 0xf6cec392b29c1767),
            ("is@Paper", 0x96650e4becf973a4),
            ("mg@Paper", 0xbcc4160ccd44c063),
            ("sp@Paper", 0x511ae175c0f14075),
            ("pingpong@Paper", 0x0673b2bc87072475),
            ("queue@Paper", 0x81d04428b0ff63b7),
            ("lock@Paper", 0x1f88c76485428719),
            ("barrier@Paper", 0xa991321c2643b5a1),
            ("serve@Paper", 0xaca0da22f841cac3),
            ("microbench@Paper", 0xa973aff2d9073bc3),
        ],
    );
}
