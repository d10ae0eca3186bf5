//! Packed word strings: a `u32` array as one JSON string.
//!
//! Simulator checkpoints carry the functional memory image, every warp's
//! registers and every CTA's shared memory. As JSON arrays those would be
//! one number token per word; packed, each array is a single string:
//!
//! ```text
//! words := item*
//! item  := hex hex hex hex hex hex hex hex   one word, most significant digit first
//!        | 'z' hex+ '.'                      a run of n >= 1 zero words, n in hex
//! hex   := [0-9a-f]
//! ```
//!
//! [`pack_words`] writes every run of two or more zero words as a run and
//! everything else as words, so its output is deterministic;
//! [`req_words`] accepts any string of the grammar that decodes to the
//! expected number of words and refuses everything else with a message.
//! Both are table-driven: encoding looks up two digits per byte, decoding
//! one digit value per character.

use crate::{req, Json};

/// [`DIGIT`]'s value for a byte that is not a lowercase hex digit. Its
/// high bit survives gathering a word's eight digits into one `u64`, so
/// one test checks them all.
const NOT_HEX: u8 = 0x80;

/// The value of each byte as a lowercase hex digit, or [`NOT_HEX`].
static DIGIT: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        t[HEX[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Lowercase hex digits by value.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// The two hex digits of each byte value, most significant first.
static HEX_PAIR: [[u8; 2]; 256] = {
    let mut t = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = [HEX[i >> 4], HEX[i & 15]];
        i += 1;
    }
    t
};

/// Hex digits needed to write `n` (at least one).
fn hex_digits(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(4) as usize
}

/// The length of the zero run [`pack_words`] writes at `words[0]`, or 0
/// where it writes a word (a nonzero word or a lone zero).
fn run_at(words: &[u32]) -> usize {
    match words {
        [0, 0, rest @ ..] => 2 + rest.iter().take_while(|&&w| w == 0).count(),
        _ => 0,
    }
}

/// The eight hex digits of `w`, most significant first.
fn hex8(w: u32) -> [u8; 8] {
    let [a, b, c, d] = w.to_be_bytes().map(|x| HEX_PAIR[x as usize]);
    [a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]]
}

/// Packs `words` into the grammar of the module documentation. The
/// string is sized exactly before it is written.
pub fn pack_words(words: &[u32]) -> String {
    let mut len = 0;
    let mut i = 0;
    while i < words.len() {
        match run_at(&words[i..]) {
            0 => (len, i) = (len + 8, i + 1),
            n => (len, i) = (len + 2 + hex_digits(n), i + n),
        }
    }
    let mut out = vec![0u8; len];
    let (mut at, mut i) = (0, 0);
    while i < words.len() {
        match run_at(&words[i..]) {
            0 => {
                out[at..at + 8].copy_from_slice(&hex8(words[i]));
                (at, i) = (at + 8, i + 1);
            }
            n => {
                let digits = hex_digits(n);
                out[at] = b'z';
                for k in 0..digits {
                    out[at + digits - k] = HEX[(n >> (4 * k)) & 15];
                }
                out[at + digits + 1] = b'.';
                (at, i) = (at + digits + 2, i + n);
            }
        }
    }
    String::from_utf8(out).expect("packed words are ASCII")
}

/// Decodes a string of the grammar of the module documentation into
/// exactly `len` words.
///
/// # Errors
///
/// Returns a message naming the byte offset for a character that is not
/// a lowercase hex digit, a word cut short by the end of the string, a
/// run without its terminating `.`, a run of no words or one that
/// overflows `len`; and the word counts when the string decodes to fewer
/// or more than `len` words.
pub(crate) fn unpack_words(text: &str, len: usize) -> Result<Vec<u32>, String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(len);
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes[pos] == b'z' {
            let start = pos;
            pos += 1;
            let room = len - out.len();
            let mut n = 0usize;
            loop {
                let Some(&b) = bytes.get(pos) else {
                    return Err(format!("zero run at byte {start} is unterminated"));
                };
                pos += 1;
                if b == b'.' {
                    break;
                }
                n = digit(b, pos - 1)?
                    .checked_add(n.saturating_mul(16))
                    .filter(|&n| n <= room)
                    .ok_or_else(|| {
                        format!("zero run at byte {start} overflows the {len} words expected")
                    })?;
            }
            if n == 0 {
                return Err(format!("zero run at byte {start} is empty"));
            }
            out.resize(out.len() + n, 0);
        } else {
            let Some(chunk) = bytes.get(pos..pos + 8) else {
                return Err(format!("word at byte {pos} is truncated"));
            };
            // One independent lookup per digit into the bytes of a u64,
            // most significant digit in the top byte, then the nibbles
            // folded pairwise into the word's bytes.
            let chunk: &[u8; 8] = chunk.try_into().expect("eight bytes");
            let mut v = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                v |= u64::from(DIGIT[b as usize]) << (56 - 8 * i);
            }
            if v & 0x8080_8080_8080_8080 != 0 {
                for (i, &b) in chunk.iter().enumerate() {
                    digit(b, pos + i)?;
                }
            }
            let v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
            let v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
            let v = (v | (v >> 16)) & 0xFFFF_FFFF;
            if out.len() == len {
                return Err(format!("more than the {len} words expected"));
            }
            out.push(v as u32);
            pos += 8;
        }
    }
    if out.len() != len {
        return Err(format!("decoded {} words, expected {len}", out.len()));
    }
    Ok(out)
}

/// The value of hex digit `b` at byte `pos`.
fn digit(b: u8, pos: usize) -> Result<usize, String> {
    match DIGIT[b as usize] {
        NOT_HEX if b.is_ascii() => Err(format!(
            "byte {pos} ({:?}) is not a lowercase hex digit",
            char::from(b)
        )),
        NOT_HEX => Err(format!(
            "byte {pos} ({b:#04x}) is not a lowercase hex digit"
        )),
        d => Ok(usize::from(d)),
    }
}

/// Fetches `key` as a packed word string of exactly `len` words.
///
/// # Errors
///
/// Returns a message naming the field if it is missing, is not a string,
/// or does not decode: a character that is not a lowercase hex digit, a
/// word cut short by the end of the string, a run without its
/// terminating `.`, a run of no words or one that overflows `len`, or a
/// string of fewer or more than `len` words.
pub fn req_words(v: &Json, key: &str, len: usize) -> Result<Vec<u32>, String> {
    let text = req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a packed word string"))?;
    unpack_words(text, len).map_err(|e| format!("field `{key}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_pack_as_hex_and_zero_runs() {
        assert_eq!(pack_words(&[]), "");
        assert_eq!(pack_words(&[0]), "00000000");
        assert_eq!(pack_words(&[0xDEAD_BEEF, 1]), "deadbeef00000001");
        assert_eq!(pack_words(&[7, 0, 0, 0, 9]), "00000007z3.00000009");
        assert_eq!(pack_words(&[0; 17]), "z11.");
        assert_eq!(pack_words(&[0, 5, 0]), "000000000000000500000000");
    }

    #[test]
    fn words_round_trip() {
        let mut words = vec![0u32; 300];
        words[5] = u32::MAX;
        words[6] = 0x0102_0304;
        words[299] = 0x8000_0000;
        for cut in [0, 1, 2, 7, 100, 300] {
            let packed = pack_words(&words[..cut]);
            assert_eq!(unpack_words(&packed, cut).unwrap(), &words[..cut]);
        }
        // A single zero written as a run is accepted, though never written.
        assert_eq!(unpack_words("z1.00000003", 2).unwrap(), [0, 3]);
    }

    #[test]
    fn unpack_refuses_every_malformation() {
        let err = |text: &str, len: usize| unpack_words(text, len).unwrap_err();
        assert_eq!(
            err("0000000G", 1),
            "byte 7 ('G') is not a lowercase hex digit"
        );
        assert_eq!(
            err("DEADBEEF", 1),
            "byte 0 ('D') is not a lowercase hex digit"
        );
        assert_eq!(err("00000001000", 2), "word at byte 8 is truncated");
        assert_eq!(err("z3", 3), "zero run at byte 0 is unterminated");
        assert_eq!(err("z.", 0), "zero run at byte 0 is empty");
        assert_eq!(err("z0.", 1), "zero run at byte 0 is empty");
        assert_eq!(err("zg.", 3), "byte 1 ('g') is not a lowercase hex digit");
        assert_eq!(
            err("z4.", 3),
            "zero run at byte 0 overflows the 3 words expected"
        );
        assert_eq!(
            err("zffffffffffffffffffff.", 3),
            "zero run at byte 0 overflows the 3 words expected"
        );
        assert_eq!(err("z2.", 3), "decoded 2 words, expected 3");
        assert_eq!(err("0000000100000002", 1), "more than the 1 words expected");
        assert_eq!(
            err("é0000000", 1),
            "byte 0 (0xc3) is not a lowercase hex digit"
        );
    }

    #[test]
    fn req_words_names_the_field() {
        let v = Json::Object(vec![
            ("image".into(), Json::Str("z2.".into())),
            ("regs".into(), Json::Array(vec![Json::UInt(0)])),
        ]);
        assert_eq!(req_words(&v, "image", 2).unwrap(), [0, 0]);
        assert_eq!(
            req_words(&v, "image", 3).unwrap_err(),
            "field `image`: decoded 2 words, expected 3"
        );
        assert_eq!(
            req_words(&v, "regs", 1).unwrap_err(),
            "field `regs` is not a packed word string"
        );
        assert!(req_words(&v, "smem", 0).unwrap_err().contains("missing"));
    }
}
