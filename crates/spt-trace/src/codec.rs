//! Byte-level encoding primitives shared by the artifact store and the
//! daemon's wire protocol: LEB128 varints, zigzag mapping for signed
//! values, and an FNV-1a running hash used both as the artifact-key mixer
//! and as the file checksum.

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

/// Appends the FNV-1a checksum of everything in `out`: the trailer of
/// every stored encoding.
pub fn seal(out: &mut Vec<u8>) {
    let mut h = Fnv::new();
    h.update(out);
    out.extend_from_slice(&h.finish().to_le_bytes());
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
    let mut h = Fnv::new();
    h.update(body);
    if h.finish().to_le_bytes() != tail {
        return Err(format!("{what} checksum mismatch"));
    }
    Ok(body)
}

/// Map a signed value onto an unsigned one so that small magnitudes (of
/// either sign) become small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` to `out` as an LEB128 varint (1..=10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
/// Returns `None` on truncation or a varint longer than 10 bytes.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let samples = [
            0u64,
            1,
            127,
            128,
            255,
            16_384,
            u32::MAX as u64,
            u64::MAX,
            0x8000_0000_0000_0000,
        ];
        let mut buf = Vec::new();
        for &s in &samples {
            put_varint(&mut buf, s);
        }
        let mut pos = 0;
        for &s in &samples {
            assert_eq!(get_varint(&buf, &mut pos), Some(s));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456, -987_654] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-1) <= 2);
        assert!(zigzag(1) <= 2);
    }

    #[test]
    fn fnv_matches_one_shot() {
        let mut h = Fnv::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }
}
