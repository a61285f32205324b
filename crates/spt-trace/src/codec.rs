//! Byte-level encoding primitives shared by the artifact store and the
//! daemon's wire protocol: the LEB128 varint and zigzag primitives (one
//! copy, in `spt_ir::codec`, re-exported here), the FNV-1a running hash
//! that mixes artifact keys, and the framing of every stored encoding
//! ([`seal`]/[`unseal`]), whose checksum is `spt_ir`'s word-wise hash.

use spt_ir::codec::word_hash;
pub use spt_ir::codec::{get_varint, put_varint, unzigzag, zigzag};

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a hasher over byte slices.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Appends the checksum of everything in `out` (its
/// [`spt_ir::codec::word_hash`], one 8-byte word per step): the trailer of
/// every stored encoding.
pub fn seal(out: &mut Vec<u8>) {
    let sum = word_hash(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// The body of a [`seal`]ed encoding that starts with `magic` (everything
/// before the checksum, magic included), or why the bytes are not one;
/// `what` names the encoding in the error.
///
/// # Errors
///
/// A buffer too short for magic and checksum, another magic, or a
/// checksum mismatch.
pub fn unseal<'a>(buf: &'a [u8], magic: &[u8; 8], what: &str) -> Result<&'a [u8], String> {
    if buf.len() < magic.len() + 8 {
        return Err(format!("{what} truncated"));
    }
    if &buf[..magic.len()] != magic {
        return Err(format!("bad {what} magic"));
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    if word_hash(body).to_le_bytes() != tail {
        return Err(format!("{what} checksum mismatch"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_bytes_reject_any_flipped_byte() {
        let mut sealed = b"SPTTESTS".to_vec();
        sealed.extend((0..41u8).map(|b| b.wrapping_mul(37)));
        seal(&mut sealed);
        let body_len = sealed.len() - 8;
        assert_eq!(
            unseal(&sealed, b"SPTTESTS", "test").map(<[u8]>::len),
            Ok(body_len)
        );
        for i in 0..sealed.len() {
            let mut damaged = sealed.clone();
            damaged[i] ^= 0x40;
            assert!(unseal(&damaged, b"SPTTESTS", "test").is_err(), "byte {i}");
        }
        assert!(unseal(&sealed[..sealed.len() - 1], b"SPTTESTS", "test").is_err());
    }

    #[test]
    fn fnv_matches_one_shot() {
        let mut h = Fnv::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
