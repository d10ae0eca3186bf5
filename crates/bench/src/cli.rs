//! The exit-code contract and argument helpers shared by every vt-bench
//! binary.
//!
//! All six CLIs (`vtprof`, `vtdiff`, `vtbench`, `vtsweep`, `vttrace`,
//! `vtfig`) speak the same three codes:
//!
//! * **0** — success; the tool did what was asked and found nothing
//!   wrong.
//! * **1** — a *finding*: the tool ran correctly but what it was asked
//!   to check failed (a `--check` mismatch, a regression gate trip, a
//!   rejected trace, a nonzero `--assert-zero` diff).
//! * **2** — a usage error or an operational failure (bad flags,
//!   unreadable files, a simulation error).
//!
//! `vtsweep` additionally exits 130 when Ctrl-C cancels a run, matching
//! shell convention; everything else goes through the helpers here so
//! the contract cannot drift per binary. Helpers return the raw `u8`
//! (testable; `ExitCode` has no `PartialEq`) and `main` wraps it with
//! `ExitCode::from`.

use std::fmt::Display;
use std::str::FromStr;
use vt_core::Architecture;

/// Exit code for success.
pub const EXIT_OK: u8 = 0;
/// Exit code for a finding: the requested check failed.
pub const EXIT_FINDING: u8 = 1;
/// Exit code for usage or operational errors.
pub const EXIT_ERROR: u8 = 2;

/// Resolves a `parse_args`-style result: `Ok(Some(opts))` continues,
/// `Ok(None)` means help/list was printed (exit 0), `Err` prints the
/// message plus usage to stderr and exits 2.
///
/// # Errors
///
/// The `Err` arm carries the exit code `main` should return.
pub fn parsed<T>(tool: &str, usage: &str, parsed: Result<Option<T>, String>) -> Result<T, u8> {
    match parsed {
        Ok(Some(o)) => Ok(o),
        Ok(None) => Err(EXIT_OK),
        Err(e) => {
            eprintln!("{tool}: {e}\n\n{usage}");
            Err(EXIT_ERROR)
        }
    }
}

/// Takes the value that follows `flag` from `args` and parses it.
///
/// # Errors
///
/// Returns a message naming `flag` when the value is missing or does not
/// parse.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The architecture a command line names by its label: `baseline`,
/// `vt`, `ideal` or `memswap`.
///
/// # Errors
///
/// Returns a message naming an unknown label.
pub fn arch(label: &str) -> Result<Architecture, String> {
    Architecture::standard()
        .into_iter()
        .find(|a| a.label() == label)
        .ok_or_else(|| format!("unknown architecture `{label}`"))
}

/// The items of `all` that `names` selects by `name`, in `names` order
/// (all of them when `names` is empty).
///
/// # Errors
///
/// Returns a message naming the first unknown name and listing the known
/// ones.
pub fn select<'a, T>(
    all: &'a [T],
    names: &[String],
    name: impl Fn(&T) -> &str,
) -> Result<Vec<&'a T>, String> {
    if names.is_empty() {
        return Ok(all.iter().collect());
    }
    let known = || all.iter().map(&name).collect::<Vec<_>>().join(", ");
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|x| name(x) == n)
                .ok_or_else(|| format!("unknown `{n}`; choose from {}", known()))
        })
        .collect()
}

/// Maps a tool's outcome to the contract: `Ok(true)` → 0, `Ok(false)`
/// (a finding) → 1, `Err` → message on stderr and 2.
pub fn finish(tool: &str, result: Result<bool, String>) -> u8 {
    match result {
        Ok(true) => EXIT_OK,
        Ok(false) => EXIT_FINDING,
        Err(e) => {
            eprintln!("{tool}: {e}");
            EXIT_ERROR
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsed_passes_options_through() {
        assert_eq!(parsed("t", "u", Ok(Some(7))).unwrap(), 7);
    }

    #[test]
    fn parsed_maps_help_to_success() {
        assert_eq!(parsed::<u32>("t", "u", Ok(None)).unwrap_err(), EXIT_OK);
    }

    #[test]
    fn parsed_maps_usage_errors_to_two() {
        assert_eq!(
            parsed::<u32>("t", "u", Err("bad flag".into())).unwrap_err(),
            EXIT_ERROR
        );
    }

    #[test]
    fn arch_and_select_resolve_names() {
        assert_eq!(arch("memswap").unwrap().label(), "memswap");
        assert!(arch("vtx").is_err());
        let all = ["a", "b", "c"];
        assert_eq!(select(&all, &[], |s| s).unwrap().len(), 3);
        let picked = select(&all, &["c".into(), "a".into()], |s| s).unwrap();
        assert_eq!(picked, [&"c", &"a"]);
        let err = select(&all, &["z".into()], |s| s).unwrap_err();
        assert_eq!(err, "unknown `z`; choose from a, b, c");
    }

    #[test]
    fn value_parses_or_names_the_flag() {
        let mut args = ["7", "x"].map(String::from).into_iter();
        assert_eq!(value::<u32>(&mut args, "--n"), Ok(7));
        assert_eq!(value::<String>(&mut args, "--s").as_deref(), Ok("x"));
        assert_eq!(
            value::<u32>(&mut args, "--n").unwrap_err(),
            "--n needs a value"
        );
        let mut bad = std::iter::once("q".to_string());
        assert!(value::<u32>(&mut bad, "--n")
            .unwrap_err()
            .starts_with("--n: "));
    }

    #[test]
    fn finish_covers_the_three_codes() {
        assert_eq!(finish("t", Ok(true)), EXIT_OK);
        assert_eq!(finish("t", Ok(false)), EXIT_FINDING);
        assert_eq!(finish("t", Err("boom".into())), EXIT_ERROR);
    }
}
