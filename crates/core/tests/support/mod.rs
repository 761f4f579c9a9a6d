//! Helpers shared by the tests that pin encoded bytes.

/// FNV-1a, 64-bit: a stable digest with no dependency.
pub fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}/{}", bytes.len())
}
