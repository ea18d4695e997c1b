//! Request-stream digests pinned per workload and seed. A run re-derives
//! the canary seed's stream and fails if its digest moved, so a change in
//! the stream generator can never pass as a change in speed.

/// `(workload, seed, digest)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("remote-hot", 0, 0xc0c648dcb3c2f890),
    ("remote-hot", 1, 0x4386140b1345a2a1),
    ("remote-hot", 2, 0x489084955d78eefa),
    ("remote-hot", 3, 0xaf427a6ba922b489),
    ("remote-hot", 4, 0xddd2a6ff5dc85ca7),
    ("remote-hot", 5, 0x26e89ea3767e60e9),
    ("remote-hot", 6, 0x3ce9d9cbecb45d4b),
    ("remote-hot", 7, 0x3baaa311e7566a07),
    ("remote-hot", 8, 0xe183f688877cba0d),
    ("remote-hot", 9, 0x373dcf66f4dc9aec),
    ("remote-hot", 10, 0x1634196b648079f0),
    ("remote-hot", 11, 0x4ee6ac0a197b231f),
    ("remote-hot", 12, 0x19b62b56a789738f),
    ("remote-hot", 13, 0x0963dc2309c64719),
    ("remote-hot", 14, 0xae6473a22901fc8f),
    ("remote-hot", 15, 0x36315e29890f7761),
    ("remote-hot", 16, 0xaae37bc2351a922f),
    ("remote-hot", 17, 0xeba487ce25485b77),
    ("remote-hot", 18, 0x8d3eb0ffe2bea85c),
    ("remote-hot", 19, 0x4d2c4b23ac9e759a),
    ("remote-hot", 20, 0xbf736f4d7d4862ea),
    ("disk-bound", 0, 0x5182a1602d17fa7b),
    ("disk-bound", 1, 0x56f62a45bfdea4b7),
    ("disk-bound", 2, 0x00a8dc127a34b49b),
    ("disk-bound", 3, 0xd190170808c916d4),
    ("disk-bound", 4, 0x727b5839b053d296),
    ("disk-bound", 5, 0xdc2abd110dc17a77),
    ("disk-bound", 6, 0x429d0cb2db9ca3bf),
    ("disk-bound", 7, 0x504158079a962327),
    ("disk-bound", 8, 0xda3ca64ba77b78f8),
    ("disk-bound", 9, 0xd47b702c35309e62),
    ("disk-bound", 10, 0xd059787a74686e91),
    ("disk-bound", 11, 0xf7ebde8e6f8de8ab),
    ("disk-bound", 12, 0x2ccadedd1b87063a),
    ("disk-bound", 13, 0xd7074f83db6cfd76),
    ("disk-bound", 14, 0x3d048e2764eb2689),
    ("disk-bound", 15, 0x07f4ed6665d5f81b),
    ("disk-bound", 16, 0xfebbaeddf32b0207),
    ("disk-bound", 17, 0xfb28c0c75e2732bb),
    ("disk-bound", 18, 0xd129bbafa8c606b7),
    ("disk-bound", 19, 0x3d4dc781fd8aefd3),
    ("disk-bound", 20, 0x65ebd01e4cc56a6a),
    ("write-back", 0, 0x2e3fc7685161eedc),
    ("write-back", 1, 0x0fc27d8d86c7f647),
    ("write-back", 2, 0x08eb907153dde87f),
    ("write-back", 3, 0xb7e08febf919e6ef),
    ("write-back", 4, 0x9ab50bdb9ae814e3),
    ("write-back", 5, 0x7659821b82b7bf3a),
    ("write-back", 6, 0xeaedeeb0051e72ee),
    ("write-back", 7, 0x7898fe32c098d948),
    ("write-back", 8, 0x4bd669c26bdf187e),
    ("write-back", 9, 0x55030afef6211d63),
    ("write-back", 10, 0x07fd5be4fbaa7bef),
    ("write-back", 11, 0xf54e56d9e37474ed),
    ("write-back", 12, 0x50fbe53ce2ead7eb),
    ("write-back", 13, 0x12cb295157abbb63),
    ("write-back", 14, 0xa813771c78463776),
    ("write-back", 15, 0x2f868c1d15b3a271),
    ("write-back", 16, 0x4b3ca41d5f51ec38),
    ("write-back", 17, 0x115b866bd21593d2),
    ("write-back", 18, 0x9ade4621f21c50ab),
    ("write-back", 19, 0x14d87b9702eb3f44),
    ("write-back", 20, 0x4b89ca0689fc67d3),
];

/// The pinned digest for `workload` at `seed`, if there is one.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|p| p.2)
}

#[cfg(test)]
mod tests {
    use crate::workload::{stream, stream_digest, Spec};

    /// Prints the table above; run with `--ignored --nocapture` after a
    /// deliberate change to the stream generator.
    #[test]
    #[ignore]
    fn print_table() {
        for w in ["remote-hot", "disk-bound", "write-back"] {
            let spec = Spec::named(w).expect("known workload");
            for seed in 0..=20 {
                let d = stream_digest(&stream(&spec, seed));
                println!("    (\"{w}\", {seed}, {d:#018x}),");
            }
        }
    }

    #[test]
    fn pinned_digests_hold() {
        for (w, seed, d) in super::PINNED.iter().filter(|p| p.1 <= 1) {
            let spec = Spec::named(w).expect("known workload");
            assert_eq!(stream_digest(&stream(&spec, *seed)), *d, "{w} seed {seed}");
        }
    }
}
