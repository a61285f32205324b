//! The artifact store's key hash and frame. Keys mix with a running FNV-1a
//! hash ([`Fnv`]). Every stored file is one frame: the kind tag, then a
//! body in `spt_ir::codec`'s byte format that the kind's codec alone
//! writes, then a checksum of all of it, `spt_ir`'s word-wise hash
//! ([`seal`]/[`unseal`]). The frame carries no format version: the store's
//! keys fold the identity of the build that wrote the body, so a file is
//! only ever read by the code that wrote it.

use spt_ir::codec::{put_str, put_word, word_hash};

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

/// The bytes a frame of kind `tag` starts with.
fn header(tag: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_str(&mut out, tag);
    out
}

/// A stored artifact's frame: the kind `tag` (length-prefixed), the body
/// that `body` appends in place, and the 8-byte little-endian
/// [`word_hash`] of everything before it.
pub fn seal(tag: &str, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = header(tag);
    body(&mut out);
    let sum = word_hash(&out);
    put_word(&mut out, sum);
    out
}

/// The body of a frame that [`seal`] wrote for `tag`; `None` for a frame
/// of another kind, and for any bytes that differ from such a frame's in
/// length or in one word.
pub fn unseal<'a>(frame: &'a [u8], tag: &str) -> Option<&'a [u8]> {
    let (framed, sum) = frame.split_at(frame.len().checked_sub(8)?);
    if word_hash(framed).to_le_bytes() != sum {
        return None;
    }
    framed.strip_prefix(&header(tag)[..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_bytes_reject_any_flipped_byte() {
        let body: Vec<u8> = (0..41u8).map(|b| b.wrapping_mul(37)).collect();
        let sealed = seal("test", |out| out.extend_from_slice(&body));
        assert_eq!(unseal(&sealed, "test"), Some(&body[..]));
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut damaged = sealed.clone();
                damaged[i] ^= 1 << bit;
                assert_eq!(unseal(&damaged, "test"), None, "byte {i} bit {bit}");
            }
        }
        for cut in 0..sealed.len() {
            assert_eq!(unseal(&sealed[..cut], "test"), None, "cut {cut}");
        }
        // A sound frame of another kind is no frame of this one.
        assert_eq!(unseal(&sealed, "tess"), None);
        let empty = seal("test", |_| ());
        assert_eq!(unseal(&empty, "test"), Some(&[][..]));
    }

    #[test]
    fn fnv_matches_one_shot() {
        let mut h = Fnv::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
