//! Certificate emission: the engine's half of the "untrusted engine,
//! trusted checker" contract.
//!
//! Every [`crate::Session::compile`] distills what it just built into an
//! `nsc_cert::CompileCertificate`: the machine limits it compiled
//! against, a per-instruction resource census read straight off the
//! generated microcode, and the kernel calculus's per-instruction
//! validity windows. The certificate is sealed and bound to the
//! document's content digest, so `nsc_cert::verify` can re-check every
//! capacity obligation later — in a park audit, in CI, offline — without
//! invoking the checker or the code generator again.
//!
//! The census here is deliberately *dumb*: it transcribes the microcode
//! fields (enabled units, DMA address spans, SDU taps) without judging
//! them. Judgment is the verifier's job; an emission bug that transcribes
//! an illegal program faithfully still gets the program rejected at audit
//! time, which is the fail-closed direction.

use nsc_arch::MachineConfig;
use nsc_cert::{
    digest_hex, CacheSpan, CompileCertificate, CompilePath, InstrCensus, KernelWindow,
    MachineLimits, PlaneSpan, ResourceCensus, SduUse,
};
use nsc_codegen::GenOutput;
use nsc_diagram::MAX_SDU_TAPS;
use nsc_microcode::{MicroInstruction, MicroProgram};
use nsc_sim::CompiledKernel;

/// The machine limits the certificate's capacity obligations divide by,
/// transcribed from the session's [`MachineConfig`].
pub fn machine_limits(cfg: &MachineConfig) -> MachineLimits {
    MachineLimits {
        fu_count: cfg.fu_count() as u32,
        planes: cfg.memory.planes as u32,
        words_per_plane: cfg.memory.words_per_plane,
        caches: cfg.cache.caches as u32,
        cache_buffers: cfg.cache.buffers as u32,
        cache_words_per_buffer: cfg.cache.words_per_buffer,
        sdu_units: cfg.sdu.units as u32,
        sdu_taps_per_unit: cfg.sdu.taps_per_unit as u32,
        sdu_buffer_words: cfg.sdu.buffer_words as u64,
        max_sdu_taps: MAX_SDU_TAPS as u32,
        rf_words: cfg.rf_words as u32,
        clock_hz: cfg.clock_hz,
    }
}

/// The inclusive `[lo, hi]` address span a DMA stream touches: `count`
/// elements starting at `base`, `stride` words apart. A stream whose
/// arithmetic escapes below zero claims an impossible span (`hi` at
/// `u64::MAX`) so the verifier rejects it rather than the emitter
/// masking it.
fn dma_span(base: i128, stride: i128, count: u64) -> (u64, u64) {
    let last = base + stride * (count as i128 - 1);
    let (lo, hi) = if stride >= 0 { (base, last) } else { (last, base) };
    if lo < 0 || hi < 0 {
        return (0, u64::MAX);
    }
    (lo as u64, hi as u64)
}

/// The resource census of one microinstruction.
fn instr_census(index: usize, ins: &MicroInstruction) -> InstrCensus {
    let mut planes = Vec::new();
    for (write, fields) in [(false, &ins.plane_rd), (true, &ins.plane_wr)] {
        for (plane, f) in fields.iter().enumerate() {
            if !f.enabled || f.count == 0 {
                continue;
            }
            let (lo, hi) = dma_span(f.base as i128, f.stride as i128, f.count as u64);
            planes.push(PlaneSpan { plane: plane as u32, lo, hi, words: f.count as u64, write });
        }
    }
    let mut caches = Vec::new();
    for (write, fields) in [(false, &ins.cache_rd), (true, &ins.cache_wr)] {
        for (cache, f) in fields.iter().enumerate() {
            if !f.enabled || f.count == 0 {
                continue;
            }
            let (lo, hi) = dma_span(f.offset as i128, f.stride as i128, f.count as u64);
            caches.push(CacheSpan {
                cache: cache as u32,
                buffer: f.buffer as u32,
                lo,
                hi,
                words: f.count as u64,
                write,
            });
        }
    }
    let sdu = ins
        .sdus
        .iter()
        .enumerate()
        .filter(|(_, s)| s.enabled)
        .map(|(unit, s)| SduUse {
            unit: unit as u32,
            taps: s.taps.iter().filter(|t| t.enabled).count() as u32,
            max_delay: s.max_delay() as u64,
        })
        .filter(|s| s.taps > 0)
        .collect();
    InstrCensus {
        index: index as u32,
        active_fus: ins.enabled_fus().count() as u32,
        sdu,
        planes,
        caches,
    }
}

/// The whole program's census: per-instruction rows plus the redundant
/// totals the verifier cross-checks.
pub fn resource_census(program: &MicroProgram) -> ResourceCensus {
    let instructions: Vec<InstrCensus> =
        program.instrs.iter().enumerate().map(|(i, ins)| instr_census(i, ins)).collect();
    let active_fus = instructions.iter().map(|r| r.active_fus as u64).sum();
    let sdu_taps = instructions.iter().flat_map(|r| &r.sdu).map(|s| s.taps as u64).sum();
    let plane_words = instructions.iter().flat_map(|r| &r.planes).map(|p| p.words).sum();
    let cache_words = instructions.iter().flat_map(|r| &r.caches).map(|c| c.words).sum();
    ResourceCensus { instructions, active_fus, sdu_taps, plane_words, cache_words }
}

/// The kernel calculus's per-instruction validity windows, for the
/// instructions it specialized into pipelines.
pub fn kernel_windows(kernel: &CompiledKernel) -> Vec<KernelWindow> {
    (0..kernel.instructions())
        .filter_map(|pc| {
            kernel.plan_summary(pc).map(|s| KernelWindow {
                index: pc as u32,
                executed_cycles: s.executed_cycles,
                flops: s.flops,
                streamed: s.elements_streamed,
                stored: s.elements_stored,
            })
        })
        .collect()
}

/// Build and seal the certificate for one compile.
pub fn build_certificate(
    cfg: &MachineConfig,
    digest: u128,
    shape: u128,
    path: CompilePath,
    output: &GenOutput,
    kernel: Option<&CompiledKernel>,
) -> CompileCertificate {
    CompileCertificate {
        format: CompileCertificate::FORMAT,
        doc_digest: digest_hex(digest),
        shape_digest: digest_hex(shape),
        compile_path: path,
        machine: machine_limits(cfg),
        census: resource_census(&output.program),
        windows: kernel.map(kernel_windows).unwrap_or_default(),
        routes: Vec::new(),
        coverage: Vec::new(),
        lease: None,
        seal: String::new(),
    }
    .sealed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_spans_cover_both_stride_signs() {
        assert_eq!(dma_span(10, 1, 5), (10, 14));
        assert_eq!(dma_span(10, 3, 4), (10, 19));
        assert_eq!(dma_span(10, -2, 5), (2, 10));
        assert_eq!(dma_span(10, 0, 7), (10, 10), "scalar rewrite stays put");
        assert_eq!(dma_span(2, -3, 4), (0, u64::MAX), "underflow claims the impossible span");
    }

    #[test]
    fn limits_transcribe_the_1988_machine() {
        let m = machine_limits(&MachineConfig::nsc_1988());
        assert_eq!(m.fu_count, 32);
        assert_eq!(m.planes, 16);
        assert_eq!(m.words_per_plane, 16 * 1024 * 1024);
        assert_eq!(m.max_sdu_taps, MAX_SDU_TAPS as u32);
        assert_eq!(m.clock_hz, 20_000_000);
    }
}
