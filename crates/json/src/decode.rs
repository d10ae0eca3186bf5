//! The decode half of [`ToJson`]: [`FromJson`], the per-field codecs a
//! field list can name, and the field-list macro [`impl_json!`].
//!
//! Decoding is total and exact: a value is refused with a message, or
//! accepted as exactly the value the text holds. Every narrowing is a
//! checked `try_from`, so `2^32 + 1` is not a `u32` rather than `1`.
//!
//! Messages name the path to the offending value within the innermost
//! type that has fields: a value that has the wrong shape or range reads
//! `field `x` is not a u32` or `field `x`[3][1] is not a bool`. A check
//! a nested type makes about its own state (a scoreboard count, a
//! register number) keeps its own wording and passes through unchanged.

use crate::{pack_words, req, Json, ToJson};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Conversion from a [`Json`] value: the decode half of [`ToJson`].
/// Implemented for the primitives, strings, options, vectors, arrays,
/// tuples and hash maps [`ToJson`] writes; derive it for structs with
/// [`impl_json!`].
pub trait FromJson: Sized {
    /// Decodes `v`.
    ///
    /// # Errors
    ///
    /// Returns a message when `v` does not have the shape or the range of
    /// `Self`.
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// How a field list writes and reads one field whose encoding is not its
/// type's own [`ToJson`]/[`FromJson`]: named after the field, as in
/// `depth: NonZero`.
pub trait Codec<T> {
    /// Encodes `v`.
    fn encode(v: &T) -> Json;

    /// Decodes `v`.
    ///
    /// # Errors
    ///
    /// Returns a message when `v` is not a value of this codec.
    fn decode(v: &Json) -> Result<T, String>;
}

/// The message for a value that is not `what` (`"a u32"`).
pub fn not_a(what: &str) -> String {
    format!("is not {what}")
}

/// Names the value an error is about. An error about the value itself
/// (it begins `is`) or about one of its elements (it begins with an
/// index) gets `what` in front; any other error was raised by a nested
/// type about its own state and passes through. Out of line, so the
/// decoders' success paths stay small.
#[cold]
fn named(what: std::fmt::Arguments<'_>, e: String) -> String {
    if e.starts_with('[') {
        format!("{what}{e}")
    } else if e.starts_with("is ") {
        format!("{what} {e}")
    } else {
        e
    }
}

/// Decodes field `key` of the object `v`.
///
/// # Errors
///
/// Returns an error naming the field if it is missing or does not decode.
pub fn field<T: FromJson>(v: &Json, key: &str) -> Result<T, String> {
    decode_field(v, key, T::from_json)
}

/// Decodes field `key` of the object `v` with `decode`.
///
/// # Errors
///
/// Returns an error naming the field if it is missing or `decode` fails.
pub fn decode_field<T>(
    v: &Json,
    key: &str,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    decode(req(v, key)?).map_err(|e| named(format_args!("field `{key}`"), e))
}

/// The elements of `v` if it is an array of exactly `n`.
///
/// # Errors
///
/// Returns an error if `v` is not an array of `n` elements.
#[inline]
pub fn elems(v: &Json, n: usize) -> Result<&[Json], String> {
    match v.as_array() {
        Some(items) if items.len() == n => Ok(items),
        _ => Err(not_a(&format!("an array of {n}"))),
    }
}

/// Decodes element `i`, `x`, of an array with `decode`.
///
/// # Errors
///
/// Returns `decode`'s error, naming the element.
pub fn decode_elem<T>(
    i: usize,
    x: &Json,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    decode(x).map_err(|e| named(format_args!("[{i}]"), e))
}

impl FromJson for u64 {
    #[inline]
    fn from_json(v: &Json) -> Result<u64, String> {
        v.as_u64().ok_or_else(|| not_a("a u64"))
    }
}

macro_rules! from_json_narrow {
    ($($t:ty),+) => {
        $(impl FromJson for $t {
            #[inline]
            fn from_json(v: &Json) -> Result<$t, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| not_a(concat!("a ", stringify!($t))))
            }
        })+
    };
}

from_json_narrow!(u32, u16, u8, usize);

impl FromJson for bool {
    #[inline]
    fn from_json(v: &Json) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| not_a("a bool"))
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| not_a("a string"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, String> {
        v.as_array()
            .ok_or_else(|| not_a("an array"))?
            .iter()
            .enumerate()
            .map(|(i, x)| decode_elem(i, x, T::from_json))
            .collect()
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(v: &Json) -> Result<VecDeque<T>, String> {
        Vec::from_json(v).map(VecDeque::from)
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<[T; N], String> {
        elems(v, N)?;
        let items: Vec<T> = Vec::from_json(v)?;
        Ok(items.try_into().ok().expect("length checked"))
    }
}

/// A hash map, under any hasher, is written as `[key, value]` pairs in
/// ascending key order, so equal maps write equal text; a key written
/// twice is refused.
impl<K: FromJson + Eq + Hash, V: FromJson, S: BuildHasher + Default> FromJson for HashMap<K, V, S> {
    fn from_json(v: &Json) -> Result<HashMap<K, V, S>, String> {
        let pairs: Vec<(K, V)> = Vec::from_json(v)?;
        let mut map = HashMap::with_capacity_and_hasher(pairs.len(), S::default());
        for (i, (k, x)) in pairs.into_iter().enumerate() {
            if map.insert(k, x).is_some() {
                return Err(format!("[{i}] repeats a key"));
            }
        }
        Ok(map)
    }
}

macro_rules! tuple_json {
    ($n:literal: $($t:ident $i:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$i.to_json()),+])
            }
        }

        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            #[inline]
            fn from_json(v: &Json) -> Result<Self, String> {
                let items = elems(v, $n)?;
                Ok(($(decode_elem($i, &items[$i], $t::from_json)?,)+))
            }
        }
    };
}

tuple_json!(2: A 0, B 1);
tuple_json!(3: A 0, B 1, C 2);
tuple_json!(4: A 0, B 1, C 2, D 3);
tuple_json!(5: A 0, B 1, C 2, D 3, E 4);

/// A counter: a running total or sequence number that only grows, of at
/// most 2^53 (see [`Json::as_count`]). Applies to a `u64` and to arrays
/// and vectors of them.
pub struct Count;

impl Count {
    #[inline]
    fn one(v: &Json) -> Result<u64, String> {
        v.as_count().ok_or_else(|| not_a("a count of at most 2^53"))
    }
}

impl Codec<u64> for Count {
    fn encode(v: &u64) -> Json {
        Json::UInt(*v)
    }

    #[inline]
    fn decode(v: &Json) -> Result<u64, String> {
        Count::one(v)
    }
}

impl Codec<Vec<u64>> for Count {
    fn encode(v: &Vec<u64>) -> Json {
        v.to_json()
    }

    fn decode(v: &Json) -> Result<Vec<u64>, String> {
        v.as_array()
            .ok_or_else(|| not_a("an array"))?
            .iter()
            .enumerate()
            .map(|(i, x)| decode_elem(i, x, Count::one))
            .collect()
    }
}

impl<const N: usize> Codec<[u64; N]> for Count {
    fn encode(v: &[u64; N]) -> Json {
        v.to_json()
    }

    fn decode(v: &Json) -> Result<[u64; N], String> {
        let mut counts = [0; N];
        for (i, (c, x)) in counts.iter_mut().zip(elems(v, N)?).enumerate() {
            *c = decode_elem(i, x, Count::one)?;
        }
        Ok(counts)
    }
}

/// A size or rate the owner divides by or loops over: any positive
/// value, and never 0.
pub struct NonZero;

impl<T: ToJson + FromJson + Default + PartialEq> Codec<T> for NonZero {
    fn encode(v: &T) -> Json {
        v.to_json()
    }

    fn decode(v: &Json) -> Result<T, String> {
        let x = T::from_json(v)?;
        if x == T::default() {
            return Err("is 0, not positive".to_string());
        }
        Ok(x)
    }
}

/// A packed word array ([`pack_words`]) whose length its owner knows
/// only from outside the value (the kernel's register frame or shared
/// memory). The field list writes it packed and decodes it *empty*: the
/// owner decodes it with [`crate::req_words`] once it has checked the
/// length, so no length read from the text sizes an allocation.
pub struct Words;

impl Codec<Vec<u32>> for Words {
    fn encode(v: &Vec<u32>) -> Json {
        Json::Str(pack_words(v))
    }

    fn decode(_: &Json) -> Result<Vec<u32>, String> {
        Ok(Vec::new())
    }
}

/// Derives [`ToJson`] and [`FromJson`] for a struct from one list of its
/// fields, in the order they are written.
///
/// An object lists `field`s; `field as "key"` writes a field under
/// another name and `field: Codec` encodes it with a [`Codec`] instead of
/// its own type's conversions. `derived { field: expr, .. }` gives the
/// fields that are not written their value on decode, and `check path`
/// runs `path(&value)?` on every decoded value. A list of every field in
/// square brackets writes them as an array instead. A list led by `row`
/// also implements [`Row`](crate::Row): the fields' cells in list order,
/// each field's type (or codec) a [`Row`](crate::Row)
/// ([`RowCodec`](crate::RowCodec)), so tables of the type can travel
/// packed ([`Rows`](crate::Rows)). A generic parameter may name one
/// more bound its fields need, as in `Icnt<T: Row>`.
///
/// ```
/// use vt_json::{impl_json, Count, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Port {
///     id: u32,
///     busy: Option<u64>,
///     served: u64,
///     probes: u8,
/// }
/// impl_json!(Port { id, busy as "busy_until", served: Count } derived { probes: 0 });
///
/// let p = Port { id: 7, busy: None, served: 3, probes: 0 };
/// let text = p.to_json().compact();
/// assert_eq!(text, r#"{"id":7,"busy_until":null,"served":3}"#);
/// assert_eq!(Port::from_json(&Json::parse(&text).unwrap()).unwrap(), p);
/// let wide = Json::parse(r#"{"id":4294967297,"busy_until":null,"served":3}"#).unwrap();
/// assert_eq!(Port::from_json(&wide).unwrap_err(), "field `id` is not a u32");
/// ```
#[macro_export]
macro_rules! impl_json {
    (row $ty:ident [ $($field:ident $(: $codec:ident)?),+ $(,)? ]) => {
        $crate::impl_json!($ty [ $($field $(: $codec)?),+ ]);
        $crate::__impl_row!($ty { $($field $(: $codec)?),+ } {});
    };
    (row $ty:ident { $($field:ident $(as $key:literal)? $(: $codec:ident)?),+ $(,)? }
        $(derived { $($d:ident: $de:expr),+ $(,)? })?
        $(check $check:path)?) => {
        $crate::impl_json!($ty { $($field $(as $key)? $(: $codec)?),+ }
            $(derived { $($d: $de),+ })? $(check $check)?);
        $crate::__impl_row!($ty { $($field $(: $codec)?),+ } { $($($d: $de),+)? } $($check)?);
    };
    ($ty:ident $(<$g:ident $(: $bound:ident)?>)? { $($field:ident $(as $key:literal)? $(: $codec:ident)?),+ $(,)? }
        $(derived { $($d:ident: $de:expr),+ $(,)? })?
        $(check $check:path)?) => {
        $crate::impl_to_json!($ty $(<$g $(: $bound)?>)? { $($field $(as $key)? $(: $codec)?),+ });
        impl$(<$g: $crate::ToJson + $crate::FromJson $(+ $crate::$bound)?>)? $crate::FromJson for $ty$(<$g>)? {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                let value = $ty {
                    $($field: $crate::decode_field(
                        v,
                        $crate::__json_key!($field $($key)?),
                        $crate::__json_decoder!($($codec)?),
                    )?,)+
                    $($($d: $de,)+)?
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
    ($ty:ident [ $($field:ident $(: $codec:ident)?),+ $(,)? ]) => {
        $crate::impl_to_json!($ty [ $($field $(: $codec)?),+ ]);
        impl $crate::FromJson for $ty {
            #[inline]
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                let n = [$(stringify!($field)),+].len();
                let mut items = $crate::elems(v, n)?.iter().enumerate();
                Ok($ty {
                    $($field: {
                        let (i, x) = items.next().expect("length checked");
                        $crate::decode_elem(i, x, $crate::__json_decoder!($($codec)?))?
                    },)+
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_encode {
    ($v:expr) => {
        $crate::ToJson::to_json($v)
    };
    ($v:expr, $codec:ident) => {
        <$codec as $crate::Codec<_>>::encode($v)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_decoder {
    () => {
        $crate::FromJson::from_json
    };
    ($codec:ident) => {
        <$codec as $crate::Codec<_>>::decode
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn narrowing_is_checked() {
        assert_eq!(u32::from_json(&Json::UInt(7)), Ok(7));
        let wide = Json::UInt((1 << 32) + 1);
        assert_eq!(u32::from_json(&wide).unwrap_err(), "is not a u32");
        assert_eq!(u64::from_json(&wide), Ok((1 << 32) + 1));
        assert_eq!(
            u16::from_json(&Json::UInt(65536)).unwrap_err(),
            "is not a u16"
        );
        assert!(u8::from_json(&Json::Int(-1)).is_err());
        assert_eq!(usize::from_json(&Json::UInt(3)), Ok(3));
    }

    #[test]
    fn errors_name_the_path_to_the_value() {
        let v = parse(r#"{"xs":[[1,true],[2,3]],"n":null}"#);
        assert_eq!(
            field::<Vec<(u32, bool)>>(&v, "xs").unwrap_err(),
            "field `xs`[1][1] is not a bool"
        );
        assert_eq!(field::<Option<u8>>(&v, "n"), Ok(None));
        assert_eq!(field::<u8>(&v, "n").unwrap_err(), "field `n` is not a u8");
        assert_eq!(field::<u8>(&v, "m").unwrap_err(), "missing field `m`");
        assert_eq!(
            field::<[u64; 3]>(&v, "xs").unwrap_err(),
            "field `xs` is not an array of 3"
        );
        // A nested type's own check keeps its wording.
        assert_eq!(
            named(format_args!("field `x`"), "scoreboard count".into()),
            "scoreboard count"
        );
    }

    #[test]
    fn maps_are_sorted_pairs_without_repeats() {
        let m: HashMap<u64, u32> = [(9, 1), (2, 5)].into();
        assert_eq!(m.to_json().compact(), "[[2,5],[9,1]]");
        assert_eq!(HashMap::from_json(&m.to_json()), Ok(m));
        let twice = parse("[[2,5],[2,6]]");
        assert_eq!(
            HashMap::<u64, u32>::from_json(&twice).unwrap_err(),
            "[1] repeats a key"
        );
    }

    #[test]
    fn codecs_bound_and_order() {
        let big = Json::UInt((1 << 53) + 1);
        assert_eq!(
            <Count as Codec<u64>>::decode(&big).unwrap_err(),
            "is not a count of at most 2^53"
        );
        assert_eq!(
            <Count as Codec<[u64; 2]>>::decode(&parse("[1,2]")),
            Ok([1, 2])
        );
        assert_eq!(
            <NonZero as Codec<u32>>::decode(&Json::UInt(0)).unwrap_err(),
            "is 0, not positive"
        );
        assert_eq!(Words::encode(&vec![0, 0, 7]).compact(), r#""z2.00000007""#);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        at: u64,
        kind: u8,
    }
    impl_json!(Pair [at, kind: NonZero]);

    #[derive(Debug, PartialEq)]
    struct Wrap<T> {
        items: Vec<T>,
        limit: u32,
        cache: u32,
    }
    fn under_limit<T>(w: &Wrap<T>) -> Result<(), String> {
        if w.items.len() <= w.limit as usize {
            Ok(())
        } else {
            Err("wrap: too many items".into())
        }
    }
    impl_json!(Wrap<T> { items as "list", limit } derived { cache: 0 } check under_limit);

    #[test]
    fn field_lists_derive_both_directions() {
        let w = Wrap {
            items: vec![Pair { at: 3, kind: 1 }],
            limit: 2,
            cache: 0,
        };
        let text = w.to_json().compact();
        assert_eq!(text, r#"{"list":[[3,1]],"limit":2}"#);
        assert_eq!(Wrap::from_json(&parse(&text)), Ok(w));
        let bad = |t: &str| Wrap::<Pair>::from_json(&parse(t)).unwrap_err();
        assert_eq!(
            bad(r#"{"list":[[3,0]],"limit":2}"#),
            "field `list`[0][1] is 0, not positive"
        );
        assert_eq!(
            bad(r#"{"list":[[3]],"limit":2}"#),
            "field `list`[0] is not an array of 2"
        );
        assert_eq!(bad(r#"{"list":[[3,1]],"limit":0}"#), "wrap: too many items");
    }
}
