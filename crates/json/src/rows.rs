//! Packed row tables: a table of fixed-width integer rows as one JSON
//! string.
//!
//! Simulator checkpoints carry tables whose rows are a few integers each:
//! cache lines, requests in flight, load groups, per-PC counters. As JSON
//! arrays every cell would be a value of its own; packed, a table is a
//! single string:
//!
//! ```text
//! table := row*
//! row   := cell (',' cell)* ';'   exactly the row type's width of cells
//! cell  := ''                     zero
//!        | [1-9a-f] hex*          a nonzero u64 in lowercase hex, no leading zeros
//!        | '-'                    absent (an `Option` that is `None`)
//! hex   := [0-9a-f]
//! ```
//!
//! Every value has one spelling, so a table decodes to the rows it was
//! written from and nothing else does. A row type lists its cells with
//! `impl_json!(row ...)`, or with `impl_row!` when it has no JSON form
//! (the [`Row`] trait); the [`Rows`] and [`Sorted`]
//! codecs write a `Vec`, `VecDeque` or map of rows packed, and
//! [`req_rows`] reads a table whose row count the owner knows. Decoding
//! reads cells straight into rows, refuses the first malformation with a
//! message naming the row and cell, and allocates no more rows than the
//! text holds (each row takes at least one byte per cell).

use crate::words::{DIGIT, HEX, NOT_HEX};
use crate::{not_a, req, Codec, Count, Json};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// A row of a packed table: a fixed number of integer cells.
pub trait Row: Sized {
    /// Cells per row.
    const WIDTH: usize;

    /// Appends the row's cells.
    fn put(&self, w: &mut RowWriter);

    /// Reads the row's cells.
    ///
    /// # Errors
    ///
    /// Returns the reader's message for a malformed cell, or a message
    /// naming the cell whose value is out of range.
    fn take(r: &mut RowReader<'_>) -> Result<Self, String>;
}

/// A value that is one cell: an integer, or absent.
pub trait Cell: Sized {
    /// The cell's value (`None` writes `-`).
    fn to_cell(&self) -> Option<u64>;

    /// The value a cell holds.
    ///
    /// # Errors
    ///
    /// Returns `is not …` when the cell is out of the type's range.
    fn from_cell(c: Option<u64>) -> Result<Self, String>;
}

impl<T: Cell> Row for T {
    const WIDTH: usize = 1;

    #[inline]
    fn put(&self, w: &mut RowWriter) {
        w.cell(self.to_cell());
    }

    #[inline]
    fn take(r: &mut RowReader<'_>) -> Result<T, String> {
        r.value()
    }
}

/// How a field list writes one row field whose cells are not its type's
/// own [`Row`] (a codec named after the field, as in `dst: RegNum`).
pub trait RowCodec<T> {
    /// Cells the field takes.
    const WIDTH: usize;

    /// Appends the field's cells.
    fn put(v: &T, w: &mut RowWriter);

    /// Reads the field's cells.
    ///
    /// # Errors
    ///
    /// Returns a message when the cells are not a value of this codec.
    fn take(r: &mut RowReader<'_>) -> Result<T, String>;
}

/// Where a packed table is written.
#[derive(Debug, Default)]
pub struct RowWriter {
    out: Vec<u8>,
}

impl RowWriter {
    /// Appends one cell.
    #[inline]
    pub fn cell(&mut self, c: Option<u64>) {
        match c {
            None => self.out.push(b'-'),
            Some(0) => {}
            Some(v) => {
                let digits = (u64::BITS - v.leading_zeros()).div_ceil(4);
                for k in (0..digits).rev() {
                    self.out.push(HEX[(v >> (4 * k)) as usize & 15]);
                }
            }
        }
        self.out.push(b',');
    }

    /// Ends a row: its last cell's `,` becomes `;`.
    fn end_row(&mut self) {
        *self.out.last_mut().expect("a row has a cell") = b';';
    }

    /// Writes `rows` as one packed string.
    fn table<'a, T: Row + 'a>(rows: impl ExactSizeIterator<Item = &'a T>) -> Json {
        let mut w = RowWriter {
            out: Vec::with_capacity(rows.len() * T::WIDTH * 3),
        };
        for row in rows {
            row.put(&mut w);
            w.end_row();
        }
        Json::Str(String::from_utf8(w.out).expect("packed rows are ASCII"))
    }
}

/// Reads the cells of a packed table, one row at a time.
#[derive(Debug)]
pub struct RowReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Cells per row.
    width: usize,
    /// The row being read and its next cell.
    row: usize,
    cell: usize,
}

impl RowReader<'_> {
    /// The next cell of the row.
    ///
    /// # Errors
    ///
    /// Returns a message naming the row, and the byte offset where one
    /// applies, for a character outside the grammar, a leading zero, a
    /// value wider than 64 bits, a row cut short by the end of the string,
    /// and a row of fewer or more than the row type's cells.
    #[inline]
    pub fn cell(&mut self) -> Result<Option<u64>, String> {
        let (row, at) = (self.row, self.cell);
        self.cell += 1;
        let mut value = Some(0u64);
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
            value = None;
        } else {
            let start = self.pos;
            let mut v = 0u64;
            while let Some(&b) = self.bytes.get(self.pos) {
                let d = DIGIT[b as usize];
                if d == NOT_HEX {
                    break;
                }
                if self.pos == start && d == 0 {
                    return Err(format!("[{row}][{at}]: byte {start} is a leading zero"));
                }
                if v >> 60 != 0 {
                    return Err(format!(
                        "[{row}][{at}]: byte {start} starts a value over 64 bits"
                    ));
                }
                v = v << 4 | u64::from(d);
                self.pos += 1;
            }
            if self.pos > start {
                value = Some(v);
            }
        }
        let last = at + 1 == self.width;
        match (self.bytes.get(self.pos), last) {
            (Some(b','), false) | (Some(b';'), true) => {
                self.pos += 1;
                Ok(value)
            }
            (None, _) => Err(format!("[{row}] is truncated")),
            (Some(b';'), false) => Err(format!(
                "[{row}] has {} cells, expected {}",
                at + 1,
                self.width
            )),
            (Some(b','), true) => Err(format!("[{row}] has more than {} cells", self.width)),
            (Some(&b), _) => Err(format!(
                "[{row}][{at}]: byte {} ({}) is not a lowercase hex digit, `-`, `,` or `;`",
                self.pos,
                if b.is_ascii() {
                    format!("{:?}", char::from(b))
                } else {
                    format!("{b:#04x}")
                }
            )),
        }
    }

    /// The next cell of the row, as a `T`.
    ///
    /// # Errors
    ///
    /// Returns [`RowReader::cell`]'s message, or one naming the cell when
    /// its value is out of `T`'s range.
    #[inline]
    pub fn value<T: Cell>(&mut self) -> Result<T, String> {
        let (row, at) = (self.row, self.cell);
        T::from_cell(self.cell()?).map_err(|e| format!("[{row}][{at}] {e}"))
    }
}

/// Reads every row of `text`, handing each to `each` with its index.
/// With `expected`, a table of any other row count is refused.
fn read_rows<T: Row>(
    text: &str,
    expected: Option<usize>,
    mut each: impl FnMut(usize, T) -> Result<(), String>,
) -> Result<usize, String> {
    let mut r = RowReader {
        bytes: text.as_bytes(),
        pos: 0,
        width: T::WIDTH,
        row: 0,
        cell: 0,
    };
    while r.pos < r.bytes.len() {
        if expected == Some(r.row) {
            return Err(format!("has more than {} rows", r.row));
        }
        r.cell = 0;
        let row = T::take(&mut r)?;
        each(r.row, row)?;
        r.row += 1;
    }
    match expected {
        Some(n) if n != r.row => Err(format!("has {} rows, expected {n}", r.row)),
        _ => Ok(r.row),
    }
}

/// The most rows `text` can hold: every row takes a byte per cell.
fn max_rows<T: Row>(text: &str) -> usize {
    text.len() / T::WIDTH
}

/// The table a JSON value holds.
fn table_text(v: &Json) -> Result<&str, String> {
    v.as_str().ok_or_else(|| not_a("a packed row string"))
}

/// Decodes `v` as rows, into a vector no larger than its text allows.
fn decode_vec<T: Row>(v: &Json) -> Result<Vec<T>, String> {
    let text = table_text(v)?;
    let mut rows = Vec::with_capacity(max_rows::<T>(text));
    read_rows(text, None, |_, row| {
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

/// Fetches `key` as a packed table of exactly `rows` rows.
///
/// # Errors
///
/// Returns a message naming the field if it is missing, is not a string,
/// has a malformed row or cell, or holds another number of rows.
pub fn req_rows<T: Row>(v: &Json, key: &str, rows: usize) -> Result<Vec<T>, String> {
    let text = req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a packed row string"))?;
    let mut out = Vec::with_capacity(rows.min(max_rows::<T>(text)));
    // As `decode_field` names errors: a nested type's check about its own
    // state passes through.
    let field = |e: String| {
        if e.starts_with('[') {
            format!("field `{key}`{e}")
        } else if e.starts_with("has ") {
            format!("field `{key}` {e}")
        } else {
            e
        }
    };
    read_rows(text, Some(rows), |_, row| {
        out.push(row);
        Ok(())
    })
    .map_err(field)?;
    Ok(out)
}

/// A table written as one packed string, in the order it is held: a
/// `Vec` or `VecDeque` of rows, or a map as `key, value` rows in
/// ascending key order (equal maps write equal text whatever their
/// hasher; a key written twice is refused).
pub struct Rows;

impl<T: Row> Codec<Vec<T>> for Rows {
    fn encode(v: &Vec<T>) -> Json {
        RowWriter::table(v.iter())
    }

    fn decode(v: &Json) -> Result<Vec<T>, String> {
        decode_vec(v)
    }
}

impl<T: Row> Codec<VecDeque<T>> for Rows {
    fn encode(v: &VecDeque<T>) -> Json {
        RowWriter::table(v.iter())
    }

    fn decode(v: &Json) -> Result<VecDeque<T>, String> {
        decode_vec(v).map(VecDeque::from)
    }
}

impl<K, V, S> Codec<HashMap<K, V, S>> for Rows
where
    K: Row + Ord + Hash + Copy,
    V: Row + Copy,
    S: BuildHasher + Default,
{
    fn encode(v: &HashMap<K, V, S>) -> Json {
        let mut pairs: Vec<(K, V)> = v.iter().map(|(&k, &x)| (k, x)).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        RowWriter::table(pairs.iter())
    }

    fn decode(v: &Json) -> Result<HashMap<K, V, S>, String> {
        let text = table_text(v)?;
        let mut map = HashMap::with_capacity_and_hasher(max_rows::<(K, V)>(text), S::default());
        read_rows(text, None, |i, (k, x): (K, V)| match map.insert(k, x) {
            Some(_) => Err(format!("[{i}] repeats a key")),
            None => Ok(()),
        })?;
        Ok(map)
    }
}

/// A queue kept in ascending order of its rows (the response queues of
/// unique keys, the writeback pipe): packed in ascending order, so equal
/// states write equal text, and read back in that order.
pub struct Sorted;

impl<T: Row + Ord> Codec<VecDeque<T>> for Sorted {
    fn encode(v: &VecDeque<T>) -> Json {
        if v.iter().zip(v.iter().skip(1)).all(|(a, b)| a <= b) {
            return RowWriter::table(v.iter());
        }
        let mut rows: Vec<&T> = v.iter().collect();
        rows.sort_unstable();
        RowWriter::table(rows.into_iter())
    }

    fn decode(v: &Json) -> Result<VecDeque<T>, String> {
        let mut rows: Vec<T> = decode_vec(v)?;
        rows.sort_unstable();
        Ok(rows.into())
    }
}

macro_rules! uint_cells {
    ($($t:ty),+) => {
        $(impl Cell for $t {
            #[inline]
            fn to_cell(&self) -> Option<u64> {
                Some(*self as u64)
            }

            #[inline]
            fn from_cell(c: Option<u64>) -> Result<$t, String> {
                c.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| not_a(concat!("a ", stringify!($t))))
            }
        })+
    };
}

uint_cells!(u64, u32, u16, u8, usize);

impl Cell for bool {
    #[inline]
    fn to_cell(&self) -> Option<u64> {
        Some(u64::from(*self))
    }

    #[inline]
    fn from_cell(c: Option<u64>) -> Result<bool, String> {
        match c {
            Some(0) => Ok(false),
            Some(1) => Ok(true),
            _ => Err(not_a("a bool")),
        }
    }
}

/// `None` is the absent cell.
impl<T: Cell> Cell for Option<T> {
    #[inline]
    fn to_cell(&self) -> Option<u64> {
        self.as_ref().and_then(Cell::to_cell)
    }

    #[inline]
    fn from_cell(c: Option<u64>) -> Result<Option<T>, String> {
        c.map(|n| T::from_cell(Some(n))).transpose()
    }
}

impl<T: Row, const N: usize> Row for [T; N] {
    const WIDTH: usize = N * T::WIDTH;

    fn put(&self, w: &mut RowWriter) {
        self.iter().for_each(|x| x.put(w));
    }

    fn take(r: &mut RowReader<'_>) -> Result<[T; N], String> {
        let items = (0..N).map(|_| T::take(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(items.try_into().ok().expect("N items"))
    }
}

macro_rules! tuple_row {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Row),+> Row for ($($t,)+) {
            const WIDTH: usize = 0 $(+ $t::WIDTH)+;

            #[inline]
            fn put(&self, w: &mut RowWriter) {
                $(self.$i.put(w);)+
            }

            #[inline]
            fn take(r: &mut RowReader<'_>) -> Result<Self, String> {
                Ok(($($t::take(r)?,)+))
            }
        }
    };
}

tuple_row!(A 0, B 1);
tuple_row!(A 0, B 1, C 2);
tuple_row!(A 0, B 1, C 2, D 3);

impl RowCodec<u64> for Count {
    const WIDTH: usize = 1;

    fn put(v: &u64, w: &mut RowWriter) {
        w.cell(Some(*v));
    }

    #[inline]
    fn take(r: &mut RowReader<'_>) -> Result<u64, String> {
        let (row, at) = (r.row, r.cell);
        match r.cell()? {
            Some(n) if n <= crate::MAX_COUNT => Ok(n),
            _ => Err(format!("[{row}][{at}] is not a count of at most 2^53")),
        }
    }
}

impl<const N: usize> RowCodec<[u64; N]> for Count {
    const WIDTH: usize = N;

    fn put(v: &[u64; N], w: &mut RowWriter) {
        v.put(w);
    }

    fn take(r: &mut RowReader<'_>) -> Result<[u64; N], String> {
        let mut counts = [0; N];
        for c in &mut counts {
            *c = <Count as RowCodec<u64>>::take(r)?;
        }
        Ok(counts)
    }
}

/// The width of the field `field` selects, for the row macro.
#[doc(hidden)]
pub const fn row_width<S, T: Row>(_field: fn(&S) -> &T) -> usize {
    T::WIDTH
}

/// The width codec `C` gives the field `field` selects, for the row
/// macro.
#[doc(hidden)]
pub const fn codec_row_width<S, T, C: RowCodec<T>>(_field: fn(&S) -> &T) -> usize {
    C::WIDTH
}

#[doc(hidden)]
#[macro_export]
macro_rules! __row_width {
    ($ty:ident, $field:ident) => {
        $crate::row_width::<$ty, _>(|s| &s.$field)
    };
    ($ty:ident, $field:ident, $codec:ident) => {
        $crate::codec_row_width::<$ty, _, $codec>(|s| &s.$field)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __row_put {
    ($v:expr, $w:expr) => {
        $crate::Row::put($v, $w)
    };
    ($v:expr, $w:expr, $codec:ident) => {
        <$codec as $crate::RowCodec<_>>::put($v, $w)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __row_take {
    ($r:expr) => {
        $crate::Row::take($r)
    };
    ($r:expr, $codec:ident) => {
        <$codec as $crate::RowCodec<_>>::take($r)
    };
}

/// Implements [`Row`] alone for a struct that only travels packed, from
/// a field list like [`impl_json!`]'s square-bracket form: the fields'
/// cells in list order, each field's type (or codec) a [`Row`]
/// ([`RowCodec`]). No JSON value of the struct is written or read, so its
/// fields need no JSON conversions of their own.
#[macro_export]
macro_rules! impl_row {
    ($ty:ident [ $($field:ident $(: $codec:ident)?),+ $(,)? ]) => {
        $crate::__impl_row!($ty { $($field $(: $codec)?),+ } {});
    };
}

/// Implements [`Row`] for a struct from the field list of
/// [`impl_json!`]'s `row` forms: the fields' cells in list order, with
/// `derived` fields given their value and the `check` run on every row.
#[doc(hidden)]
#[macro_export]
macro_rules! __impl_row {
    ($ty:ident { $($field:ident $(: $codec:ident)?),+ } { $($d:ident: $de:expr),* } $($check:path)?) => {
        impl $crate::Row for $ty {
            const WIDTH: usize = 0 $(+ $crate::__row_width!($ty, $field $(, $codec)?))+;

            #[inline]
            fn put(&self, w: &mut $crate::RowWriter) {
                $($crate::__row_put!(&self.$field, w $(, $codec)?);)+
            }

            #[inline]
            fn take(r: &mut $crate::RowReader<'_>) -> ::std::result::Result<Self, ::std::string::String> {
                let value = $ty {
                    $($field: $crate::__row_take!(r $(, $codec)?)?,)+
                    $($d: $de,)*
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{impl_json, FromJson, ToJson};

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Line {
        tag: u64,
        valid: bool,
        owner: Option<u32>,
        uses: u64,
    }
    impl_json!(row Line [tag, valid, owner, uses: Count]);

    fn line(tag: u64, owner: Option<u32>) -> Line {
        Line {
            tag,
            valid: tag != 0,
            owner,
            uses: tag / 2,
        }
    }

    fn table(text: &str) -> Json {
        Json::Str(text.into())
    }

    #[test]
    fn rows_pack_as_hex_cells() {
        let lines = vec![
            line(0, None),
            line(0x1f, Some(3)),
            line(u64::MAX >> 11, Some(0)),
        ];
        let packed = Rows::encode(&lines);
        assert_eq!(
            packed,
            table(",,-,;1f,1,3,f;1fffffffffffff,1,,fffffffffffff;")
        );
        assert_eq!(Rows::decode(&packed), Ok(lines.clone()));
        let queue: VecDeque<Line> = lines.into();
        assert_eq!(Rows::decode(&Rows::encode(&queue)), Ok(queue));
        assert_eq!(Rows::encode(&Vec::<Line>::new()), table(""));
        // Tuples and arrays flatten into one row.
        let wide: Vec<(u64, [u8; 2], Line)> = vec![(7, [1, 2], line(4, None))];
        assert_eq!(Rows::encode(&wide), table("7,1,2,4,1,-,2;"));
        assert_eq!(Rows::decode(&Rows::encode(&wide)), Ok(wide));
    }

    #[test]
    fn maps_and_sorted_queues_write_in_ascending_order() {
        let m: HashMap<u64, u32> = [(9, 1), (2, 5)].into();
        assert_eq!(Rows::encode(&m), table("2,5;9,1;"));
        assert_eq!(Rows::decode(&table("9,1;2,5;")), Ok(m));
        assert_eq!(
            <Rows as Codec<HashMap<u64, u32>>>::decode(&table("2,5;2,6;")).unwrap_err(),
            "[1] repeats a key"
        );
        let q: VecDeque<(u64, u64)> = [(5, 1), (1, 2), (3, 0)].into();
        assert_eq!(Sorted::encode(&q), table("1,2;3,;5,1;"));
        let back: VecDeque<(u64, u64)> = Sorted::decode(&table("4,;2,;")).unwrap();
        assert_eq!(back, [(2, 0), (4, 0)]);
    }

    #[test]
    fn malformed_tables_are_refused_naming_row_and_cell() {
        let err = |text: &str| <Rows as Codec<Vec<Line>>>::decode(&table(text)).unwrap_err();
        assert_eq!(
            <Rows as Codec<Vec<Line>>>::decode(&Json::UInt(3)).unwrap_err(),
            "is not a packed row string"
        );
        assert_eq!(
            err("1,1,,;2,1,g,;"),
            "[1][2]: byte 10 ('g') is not a lowercase hex digit, `-`, `,` or `;`"
        );
        assert_eq!(
            err("A,1,,;"),
            "[0][0]: byte 0 ('A') is not a lowercase hex digit, `-`, `,` or `;`"
        );
        assert_eq!(err("1,1,,;2,1"), "[1] is truncated");
        assert_eq!(err("1,1,;"), "[0] has 3 cells, expected 4");
        assert_eq!(err("1,1,,,;"), "[0] has more than 4 cells");
        assert_eq!(err("01,1,,;"), "[0][0]: byte 0 is a leading zero");
        assert_eq!(err("1,1,,0;"), "[0][3]: byte 5 is a leading zero");
        assert_eq!(
            err("10000000000000000,1,,;"),
            "[0][0]: byte 0 starts a value over 64 bits"
        );
        assert_eq!(err("1,2,,;"), "[0][1] is not a bool");
        assert_eq!(err("1,1,100000000,;"), "[0][2] is not a u32");
        assert_eq!(err("-,1,,;"), "[0][0] is not a u64");
        assert_eq!(
            err("1,1,,20000000000001;"),
            "[0][3] is not a count of at most 2^53"
        );
        assert_eq!(
            err("1,1,,\u{e9};"),
            "[0][3]: byte 5 (0xc3) is not a lowercase hex digit, `-`, `,` or `;`"
        );
    }

    #[derive(Debug, PartialEq)]
    struct Cache {
        lines: Vec<Line>,
    }
    impl_json!(Cache { lines: Rows });

    #[test]
    fn errors_name_the_field() {
        let bad = |text: &str| {
            let v = Json::Object(vec![("lines".into(), Json::parse(text).unwrap())]);
            Cache::from_json(&v).unwrap_err()
        };
        assert_eq!(bad("[]"), "field `lines` is not a packed row string");
        assert_eq!(bad(r#""1,1,,;2,1""#), "field `lines`[1] is truncated");
        assert_eq!(
            bad(r#""1,x,,;""#),
            "field `lines`[0][1]: byte 2 ('x') is not a lowercase hex digit, `-`, `,` or `;`"
        );
        assert_eq!(
            bad(r#""1,1,;""#),
            "field `lines`[0] has 3 cells, expected 4"
        );
        let c = Cache {
            lines: vec![line(3, None)],
        };
        assert_eq!(
            Cache::from_json(&Json::parse(&c.to_json().compact()).unwrap()),
            Ok(c)
        );
    }

    #[test]
    fn req_rows_checks_the_row_count_the_owner_knows() {
        let v = Json::Object(vec![
            ("lines".into(), table("1,1,,;2,1,,;")),
            ("n".into(), Json::UInt(1)),
        ]);
        assert_eq!(req_rows::<Line>(&v, "lines", 2).unwrap().len(), 2);
        assert_eq!(
            req_rows::<Line>(&v, "lines", 3).unwrap_err(),
            "field `lines` has 2 rows, expected 3"
        );
        assert_eq!(
            req_rows::<Line>(&v, "lines", 1).unwrap_err(),
            "field `lines` has more than 1 rows"
        );
        assert_eq!(
            req_rows::<Line>(&v, "n", 1).unwrap_err(),
            "field `n` is not a packed row string"
        );
        assert_eq!(
            req_rows::<Line>(&v, "m", 1).unwrap_err(),
            "missing field `m`"
        );
        // A huge expected count allocates only what the text can hold.
        assert_eq!(
            req_rows::<Line>(&v, "lines", usize::MAX).unwrap_err(),
            format!("field `lines` has 2 rows, expected {}", usize::MAX)
        );
    }
}
