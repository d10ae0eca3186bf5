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
//! Both work on a word's eight digits at once, as the bytes of one
//! `u64`: encoding spreads the word's nibbles into bytes and adds the
//! ASCII offsets, decoding checks all eight characters with byte-wise
//! range tests and folds their nibbles back together.

use crate::{req, Json};

/// [`DIGIT`]'s value for a byte that is not a lowercase hex digit. Its
/// high bit survives gathering a word's eight digits into one `u64`, so
/// one test checks them all.
pub(crate) const NOT_HEX: u8 = 0x80;

/// The value of each byte as a lowercase hex digit, or [`NOT_HEX`].
pub(crate) static DIGIT: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        t[HEX[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Lowercase hex digits by value.
pub(crate) const HEX: &[u8; 16] = b"0123456789abcdef";

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

/// Each byte's low bit, and each byte's high bit.
const LOW: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The eight hex digits of `w`, most significant first.
fn hex8(w: u32) -> [u8; 8] {
    // One nibble per byte, the most significant in the top byte.
    let x = u64::from(w);
    let x = (x & 0xFFFF_0000) << 16 | (x & 0xFFFF);
    let x = (x & 0x0000_FF00_0000_FF00) << 8 | (x & 0x0000_00FF_0000_00FF);
    let x = (x & 0x00F0_00F0_00F0_00F0) << 4 | (x & 0x000F_000F_000F_000F);
    // `0`..`9` is 0x30 up, `a`..`f` 0x27 further: a nibble of 10 or more
    // carries into its byte's high bit when 0x76 is added.
    let letters = ((x + 0x76 * LOW) >> 7) & LOW;
    (x + 0x30 * LOW + 0x27 * letters).to_be_bytes()
}

/// The word eight lowercase hex digits spell, most significant first, or
/// `None` if one of them is not a lowercase hex digit.
#[inline]
fn word8(digits: &[u8; 8]) -> Option<u32> {
    let x = u64::from_be_bytes(*digits);
    if x & HIGH != 0 {
        return None;
    }
    // Byte-wise range tests on bytes below 0x80: adding 0x80 - lo sets a
    // byte's high bit iff it is at least lo, adding 0x7f - hi iff it is
    // above hi, and neither carries into the next byte.
    let at_least = |lo: u64| (x + (0x80 - lo) * LOW) & HIGH;
    let above = |hi: u64| (x + (0x7f - hi) * LOW) & HIGH;
    let digit = at_least(0x30) & !above(0x39);
    let letter = at_least(0x61) & !above(0x66);
    if digit | letter != HIGH {
        return None;
    }
    // A letter's low nibble is its value less 9.
    let v = (x & (0x0F * LOW)) + 9 * (letter >> 7);
    let v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    let v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    Some(((v | (v >> 16)) & 0xFFFF_FFFF) as u32)
}

/// Packs `words` into the grammar of the module documentation, in one
/// pass into a buffer that cannot outgrow eight bytes a word.
pub fn pack_words(words: &[u32]) -> String {
    let mut out = Vec::with_capacity(8 * words.len());
    let mut i = 0;
    while i < words.len() {
        match run_at(&words[i..]) {
            0 => {
                out.extend_from_slice(&hex8(words[i]));
                i += 1;
            }
            n => {
                out.push(b'z');
                for k in (0..hex_digits(n)).rev() {
                    out.push(HEX[(n >> (4 * k)) & 15]);
                }
                out.push(b'.');
                i += n;
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
            let chunk: &[u8; 8] = chunk.try_into().expect("eight bytes");
            let Some(v) = word8(chunk) else {
                let bad = chunk.iter().position(|&b| DIGIT[b as usize] == NOT_HEX);
                let i = bad.expect("a word that does not decode has a non-digit");
                return Err(digit(chunk[i], pos + i).expect_err("not a digit"));
            };
            if out.len() == len {
                return Err(format!("more than the {len} words expected"));
            }
            out.push(v);
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
    fn every_digit_and_no_other_byte_decodes() {
        for w in [0, 1, 0x0123_4567, 0x89ab_cdef, 0xfedc_ba98, u32::MAX] {
            assert_eq!(word8(&hex8(w)), Some(w), "{w:#x}");
            assert_eq!(hex8(w), *format!("{w:08x}").as_bytes());
        }
        for b in 0..=255u8 {
            let mut digits = *b"0123abcd";
            digits[5] = b;
            let want = (DIGIT[b as usize] != NOT_HEX)
                .then(|| 0x0123_a0cd | u32::from(DIGIT[b as usize]) << 8);
            assert_eq!(word8(&digits), want, "byte {b:#04x}");
        }
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
