//! Kernels: a program plus launch geometry and resource footprint.

use crate::error::ProgramError;
use crate::program::Program;
use crate::WARP_SIZE;

/// A launchable GPU kernel.
///
/// A kernel couples a validated [`Program`] with its 1-D launch geometry
/// (`num_ctas` CTAs of `threads_per_cta` threads), its per-thread register
/// count, its per-CTA shared-memory footprint and the initial global-memory
/// image. The resource declaration is what the occupancy machinery and the
/// Virtual Thread CTA allocator reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    program: Program,
    num_ctas: u32,
    threads_per_cta: u32,
    regs_per_thread: u16,
    smem_bytes_per_cta: u32,
    global_mem: MemImage,
}

impl Kernel {
    /// Creates a kernel, validating the program against the declared
    /// resources and the geometry for basic sanity.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the program fails
    /// [`Program::validate`], or [`ProgramError::Empty`] if the geometry is
    /// degenerate (zero CTAs or zero threads).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        program: Program,
        num_ctas: u32,
        threads_per_cta: u32,
        regs_per_thread: u16,
        smem_bytes_per_cta: u32,
        global_mem: MemImage,
    ) -> Result<Kernel, ProgramError> {
        if num_ctas == 0 || threads_per_cta == 0 {
            return Err(ProgramError::Empty);
        }
        program.validate(regs_per_thread, smem_bytes_per_cta)?;
        Ok(Kernel {
            name: name.into(),
            program,
            num_ctas,
            threads_per_cta,
            regs_per_thread: regs_per_thread.max(1),
            smem_bytes_per_cta,
            global_mem,
        })
    }

    /// Kernel name (used in reports and tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// CTAs in the grid.
    pub fn num_ctas(&self) -> u32 {
        self.num_ctas
    }

    /// Threads per CTA (not necessarily a multiple of the warp size; the
    /// last warp runs partially populated).
    pub fn threads_per_cta(&self) -> u32 {
        self.threads_per_cta
    }

    /// Architectural registers per thread.
    pub fn regs_per_thread(&self) -> u16 {
        self.regs_per_thread
    }

    /// Shared-memory bytes per CTA.
    pub fn smem_bytes_per_cta(&self) -> u32 {
        self.smem_bytes_per_cta
    }

    /// The initial global-memory image.
    pub fn global_mem(&self) -> &MemImage {
        &self.global_mem
    }

    /// Warps per CTA (threads rounded up to whole warps).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(WARP_SIZE)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.num_ctas) * u64::from(self.threads_per_cta)
    }

    /// Register-file bytes one CTA occupies (32-bit registers).
    pub fn reg_bytes_per_cta(&self) -> u32 {
        // Register files allocate per warp in practice; round threads up
        // to whole warps like real allocators do.
        self.warps_per_cta() * WARP_SIZE * u32::from(self.regs_per_thread) * 4
    }

    /// Returns a copy with a different grid size, reusing program,
    /// resources and memory image. Used by sweep harnesses.
    ///
    /// Growing the grid beyond what the kernel's buffers were sized for
    /// makes the extra threads address out-of-range memory, which traps at
    /// run time (`GlobalOutOfRange`). Shrink freely; grow only for kernels
    /// that wrap their indices (the suite's L2-resident-table kernels do).
    pub fn with_num_ctas(&self, num_ctas: u32) -> Kernel {
        let mut k = self.clone();
        k.num_ctas = num_ctas.max(1);
        k
    }

    /// Returns a copy with a different initial global-memory image —
    /// typically the output image of a previous launch, for chaining
    /// kernels of an iterative application.
    pub fn with_global_mem(&self, image: MemImage) -> Kernel {
        let mut k = self.clone();
        k.global_mem = image;
        k
    }
}

/// The largest global-memory image, in 32-bit words, that an assembly
/// `.globalmem` directive (input from outside the process) may ask for;
/// the assembler bounds a CTA's shared memory and register file by it
/// too.
/// 2^24 words is 64 MiB, over twenty times the largest built-in workload
/// (`lbm` at paper scale, 737,280 words).
pub const MAX_GLOBAL_WORDS: usize = 1 << 24;

/// The most threads a CTA assembled from text may have. A CTA's state is
/// allocated per thread, so this and [`MAX_GLOBAL_WORDS`] (which bounds
/// its shared memory and register file) bound it.
pub const MAX_CTA_THREADS: u32 = 1 << 16;

/// A word-addressable global-memory image.
///
/// Addresses are byte addresses; all accesses are 4-byte aligned words.
/// The image doubles as the initial kernel input and (after a run) the
/// functional output that tests compare against the reference interpreter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    words: Vec<u32>,
}

impl MemImage {
    /// An image of `words` zeroed 32-bit words.
    pub fn zeroed(words: usize) -> MemImage {
        MemImage {
            words: vec![0; words],
        }
    }

    /// Wraps an existing word vector.
    pub fn from_words(words: Vec<u32>) -> MemImage {
        MemImage { words }
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Size in words.
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Reads the word at byte address `addr`, or `None` if out of range or
    /// unaligned.
    pub fn load(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        self.words.get((addr / 4) as usize).copied()
    }

    /// Reads `n` consecutive words starting at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `addr` is unaligned.
    pub fn load_words(&self, addr: u32, n: usize) -> &[u32] {
        assert_eq!(addr % 4, 0, "unaligned load_words at {addr:#x}");
        let start = (addr / 4) as usize;
        &self.words[start..start + n]
    }

    /// Writes the word at byte address `addr`. Returns `false` (and leaves
    /// the image unchanged) if out of range or unaligned.
    pub fn store(&mut self, addr: u32, value: u32) -> bool {
        if !addr.is_multiple_of(4) {
            return false;
        }
        match self.words.get_mut((addr / 4) as usize) {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }

    /// Copies `values` into the image starting at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `addr` is unaligned.
    pub fn store_words(&mut self, addr: u32, values: &[u32]) {
        assert_eq!(addr % 4, 0, "unaligned store_words at {addr:#x}");
        let start = (addr / 4) as usize;
        self.words[start..start + values.len()].copy_from_slice(values);
    }

    /// The raw word slice.
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// The raw word slice, writable: one memory access's lanes each
    /// take their word from it.
    pub(crate) fn words_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn tiny_program() -> Program {
        Program::new(vec![Instr::Exit])
    }

    #[test]
    fn kernel_geometry_math() {
        let k = Kernel::new("k", tiny_program(), 4, 96, 16, 1024, MemImage::zeroed(8)).unwrap();
        assert_eq!(k.warps_per_cta(), 3);
        assert_eq!(k.total_threads(), 384);
        assert_eq!(k.reg_bytes_per_cta(), 3 * 32 * 16 * 4);
        assert_eq!(k.with_num_ctas(9).num_ctas(), 9);
    }

    #[test]
    fn kernel_rejects_degenerate_geometry() {
        assert!(Kernel::new("k", tiny_program(), 0, 32, 8, 0, MemImage::default()).is_err());
        assert!(Kernel::new("k", tiny_program(), 1, 0, 8, 0, MemImage::default()).is_err());
    }

    #[test]
    fn with_global_mem_replaces_image() {
        let k = Kernel::new("k", tiny_program(), 1, 32, 4, 0, MemImage::zeroed(4)).unwrap();
        let k2 = k.with_global_mem(MemImage::from_words(vec![7, 8]));
        assert_eq!(k2.global_mem().load(4), Some(8));
        assert_eq!(k.global_mem().load(0), Some(0), "original untouched");
    }

    #[test]
    fn partial_warp_rounds_up() {
        let k = Kernel::new("k", tiny_program(), 1, 33, 8, 0, MemImage::default()).unwrap();
        assert_eq!(k.warps_per_cta(), 2);
    }

    #[test]
    fn mem_image_load_store() {
        let mut m = MemImage::zeroed(4);
        assert_eq!(m.byte_len(), 16);
        assert!(m.store(8, 42));
        assert_eq!(m.load(8), Some(42));
        assert_eq!(m.load(6), None, "unaligned");
        assert_eq!(m.load(16), None, "out of range");
        assert!(!m.store(3, 1));
        assert!(!m.store(100, 1));
        m.store_words(0, &[1, 2]);
        assert_eq!(m.load_words(0, 3), &[1, 2, 42]);
    }
}
