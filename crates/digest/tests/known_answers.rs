//! Known-answer tests: SHA-256 against FIPS 180-4 (Appendix B examples)
//! and HMAC-SHA-256 against RFC 4231 test cases 1–4, 6 and 7. Case 5
//! tests output truncation, which this crate does not offer.

use safeweb_digest::{ct_eq, hmac_sha256, sha256, HmacSha256, Sha256};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const SHA256_VECTORS: &[(&[u8], &str)] = &[
    (
        b"abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    ),
    (
        b"",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
];

const RFC4231_CASE_7_DATA: &[u8] = b"This is a test using a larger than block-size key and a \
larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";

/// (key, data, tag) for RFC 4231 cases 1, 2, 3, 4, 6, 7.
fn hmac_vectors() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
    vec![
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            (1..=25).collect(),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            vec![0xaa; 131],
            RFC4231_CASE_7_DATA.to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ]
}

#[test]
fn sha256_fips_180_4_vectors() {
    for (msg, want) in SHA256_VECTORS {
        assert_eq!(hex(&sha256(msg)), *want, "message {msg:?}");
    }
}

#[test]
fn sha256_streaming_matches_one_shot_at_every_split() {
    // Long enough to cross block boundaries and exercise both padding
    // shapes (final block with and without room for the length).
    let msg: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
    for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
        let whole = sha256(&msg[..len]);
        for split in 0..=len {
            let mut hasher = Sha256::new();
            hasher.update(&msg[..split]);
            hasher.update(&msg[split..len]);
            assert_eq!(hasher.finalize(), whole, "len {len} split {split}");
        }
    }
}

#[test]
fn hmac_sha256_rfc_4231_vectors() {
    for (case, (key, data, want)) in hmac_vectors().into_iter().enumerate() {
        assert_eq!(hex(&hmac_sha256(&key, &data)), want, "vector {case}");
        // Streaming, and from a cloned keyed state.
        let keyed = HmacSha256::new(&key);
        let mut mac = keyed.clone();
        let (head, tail) = data.split_at(data.len() / 2);
        mac.update(head);
        mac.update(tail);
        assert_eq!(hex(&mac.finalize()), want, "vector {case}, streamed");
    }
}

#[test]
fn debug_output_hides_key_state() {
    let mac = HmacSha256::new(b"Jefe");
    assert_eq!(format!("{mac:?}"), "HmacSha256 { .. }");
}

#[test]
fn ct_eq_compares_contents_and_length() {
    assert!(ct_eq(b"abc", b"abc"));
    assert!(!ct_eq(b"abc", b"abd"));
    assert!(!ct_eq(b"abc", b"ab"));
    assert!(ct_eq(b"", b""));
}
