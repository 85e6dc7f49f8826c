//! The seven CVE-derived models of Table II.
//!
//! Each model reproduces the heap *event signature* of the real
//! vulnerability: who allocates what and where, which calling context the
//! vulnerable buffer comes from, and how the attack input stretches an
//! access past its legal bounds (or through a dangling pointer).

use crate::{VulnApp, ATTACK_BYTE, SECRET_BYTE, SPRAY_BYTE};
use ht_patch::{AllocFn, VulnFlags};
use ht_simprog::{Expr, ProgramBuilder, Sink};

/// CVE-2014-0160 — OpenSSL Heartbleed.
///
/// The heartbeat handler allocates a 34 KB response buffer and copies back
/// `payload_length` bytes *as claimed by the attacker* (input 0), even though
/// only the actual payload (input 1) was written. A previous TLS session
/// filled the same allocation class with key material. Claimed lengths up to
/// 64 KB leak stale session data (uninitialized read) and run past the
/// buffer's end (overread) — the paper's "mix of uninitialized read and
/// overflow".
///
/// Inputs: `[claimed_len, payload_len]`.
pub fn heartbleed() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let tls_session = pb.func("tls1_process_session");
    let heartbeat = pb.func("tls1_process_heartbeat");
    let dtls_write = pb.func("dtls1_write_bytes");
    let session = pb.slot();
    let reqbuf = pb.slot();

    // A completed TLS session leaves 36 KB of key material on the heap.
    pb.define(tls_session, |b| {
        b.alloc(session, AllocFn::Malloc, 36_000u64);
        b.write(session, 0u64, 36_000u64, SECRET_BYTE);
        b.free(session);
    });
    // The heartbeat response buffer: 34 KB, same allocation class (64 KB).
    pb.define(heartbeat, |b| {
        b.alloc(reqbuf, AllocFn::Malloc, 34_816u64);
        // memcpy(bp, pl, payload) — only the real payload is written.
        b.write(reqbuf, 0u64, Expr::Input(1), ATTACK_BYTE);
        b.call(dtls_write);
        b.free(reqbuf);
    });
    // dtls1_write_bytes sends `claimed_len` bytes back to the peer.
    pb.define(dtls_write, |b| {
        b.read(reqbuf, 0u64, Expr::Input(0), Sink::Leak);
    });
    pb.define(main, |b| {
        b.call(tls_session);
        b.call(heartbeat);
    });

    VulnApp {
        name: "heartbleed".into(),
        reference: "CVE-2014-0160".into(),
        expected: VulnFlags::UNINIT_READ | VulnFlags::OVERFLOW,
        program: pb.build(),
        benign_inputs: vec![vec![16, 16], vec![1024, 1024]],
        attack_inputs: vec![vec![65_535, 16], vec![40_000, 64]],
        success_markers: vec![vec![SECRET_BYTE; 16]],
    }
}

/// BugBench bc-1.06 — heap buffer overflow in `more_arrays`.
///
/// `bc` grows its array-of-arrays with a miscomputed element count; a long
/// enough expression overflows into adjacent interpreter state, hijacking
/// control data. Inputs: `[array_count, write_count]` (×8 bytes each).
pub fn bc() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let parse = pb.func("yyparse");
    let more_arrays = pb.func("more_arrays");
    let use_arrays = pb.func("execute");
    let arrays = pb.slot();
    let victim = pb.slot();

    pb.define(more_arrays, |b| {
        b.alloc(arrays, AllocFn::Malloc, Expr::Input(0).mul(Expr::Const(8)));
        // Interpreter control data allocated right after (same class).
        b.alloc(victim, AllocFn::Malloc, Expr::Input(0).mul(Expr::Const(8)));
        b.write(victim, 0u64, 8u64, 0x11);
        // The buggy copy: attacker controls the count.
        b.write(
            arrays,
            0u64,
            Expr::Input(1).mul(Expr::Const(8)),
            ATTACK_BYTE,
        );
    });
    pb.define(use_arrays, |b| {
        // The interpreter jumps through its (possibly corrupted) control
        // data.
        b.read(victim, 0u64, 8u64, Sink::Addr);
        b.read(victim, 0u64, 8u64, Sink::Leak);
        b.free(victim);
        b.free(arrays);
    });
    pb.define(parse, |b| b.call(more_arrays));
    pb.define(main, |b| {
        b.call(parse);
        b.call(use_arrays);
    });

    VulnApp {
        name: "bc-1.06".into(),
        reference: "BugBench".into(),
        expected: VulnFlags::OVERFLOW,
        program: pb.build(),
        benign_inputs: vec![vec![8, 8], vec![8, 4]],
        attack_inputs: vec![vec![8, 16], vec![8, 32]],
        success_markers: vec![vec![ATTACK_BYTE; 8]],
    }
}

/// CVE-2017-9740 — GhostXPS uninitialized read.
///
/// A color-conversion buffer is only partially initialized when the crafted
/// document claims fewer components than the buffer holds; the renderer then
/// `memcpy`s it into the output buffer, which is sent to the client. The
/// patchable context is the *color buffer's* — finding it requires tracing
/// the leaked bytes back through the copy (origin tracking, paper §V).
/// Inputs: `[_, initialized_len]`.
pub fn ghostxps() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let doc_setup = pb.func("xps_init_font_cache");
    let load = pb.func("xps_load_part");
    let parse_color = pb.func("xps_parse_color");
    let render = pb.func("xps_render_page");
    let cache = pb.slot();
    let colorbuf = pb.slot();
    let outbuf = pb.slot();

    // Earlier work leaves sensitive bytes in the 256-byte class.
    pb.define(doc_setup, |b| {
        b.alloc(cache, AllocFn::Malloc, 256u64);
        b.write(cache, 0u64, 256u64, SECRET_BYTE);
        b.free(cache);
    });
    pb.define(parse_color, |b| {
        b.alloc(colorbuf, AllocFn::Malloc, 256u64);
        // Only `input[1]` bytes are initialized from the document.
        b.write(colorbuf, 0u64, Expr::Input(1), 0x22);
        b.call(render);
        b.free(colorbuf);
    });
    pb.define(render, |b| {
        // The renderer copies the color data into the output page...
        b.alloc(outbuf, AllocFn::Calloc, 256u64);
        b.copy(colorbuf, 0u64, outbuf, 0u64, 256u64);
        // ...which is written to the produced document.
        b.read(outbuf, 0u64, 256u64, Sink::Leak);
        b.free(outbuf);
    });
    pb.define(load, |b| b.call(parse_color));
    pb.define(main, |b| {
        b.call(doc_setup);
        b.call(load);
    });

    VulnApp {
        name: "ghostxps-9.21".into(),
        reference: "CVE-2017-9740".into(),
        expected: VulnFlags::UNINIT_READ,
        program: pb.build(),
        benign_inputs: vec![vec![0, 256]],
        attack_inputs: vec![vec![0, 64], vec![0, 8]],
        success_markers: vec![vec![SECRET_BYTE; 8]],
    }
}

/// CVE-2015-7801 — OptiPNG use after free.
///
/// A malformed PNG frees an image-row object on an error path but keeps
/// using it; the attacker's subsequent chunk data reclaims the block, so the
/// dangling virtual call dispatches through attacker bytes. Inputs:
/// `[trigger_error_path]`.
pub fn optipng() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let decode = pb.func("png_decode_image");
    let chunk = pb.func("opng_handle_chunk");
    let spray_fn = pb.func("png_handle_unknown");
    let finish = pb.func("opng_finish");
    let obj = pb.slot();
    let spray = pb.slot();

    pb.define(chunk, |b| {
        b.alloc(obj, AllocFn::Malloc, 48u64);
        b.write(obj, 0u64, 48u64, 0x11);
        // The bug: an error path frees the object that stays referenced.
        b.when(Expr::Input(0), |b| b.free(obj));
    });
    pb.define(spray_fn, |b| {
        // Attacker-controlled chunk payload lands in the freed class.
        b.alloc(spray, AllocFn::Malloc, 48u64);
        b.write(spray, 0u64, 48u64, SPRAY_BYTE);
    });
    pb.define(finish, |b| {
        // Dangling virtual dispatch.
        b.read(obj, 0u64, 8u64, Sink::Addr);
        b.read(obj, 0u64, 8u64, Sink::Leak);
        b.free(spray);
    });
    pb.define(decode, |b| b.call(chunk));
    pb.define(main, |b| {
        b.call(decode);
        b.call(spray_fn);
        b.call(finish);
    });

    VulnApp {
        name: "optipng-0.6.4".into(),
        reference: "CVE-2015-7801".into(),
        expected: VulnFlags::USE_AFTER_FREE,
        program: pb.build(),
        benign_inputs: vec![vec![0]],
        attack_inputs: vec![vec![1]],
        success_markers: vec![vec![SPRAY_BYTE; 8]],
    }
}

/// CVE-2017-9935 — LibTIFF `t2p_write_pdf` heap overflow.
///
/// The PDF transcoder sizes a buffer with `realloc` from a field the crafted
/// TIFF controls, then writes more than it reserved, corrupting the adjacent
/// object. Inputs: `[reserved_count, write_count]` (×8 bytes each).
pub fn tiff() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let open = pb.func("TIFFOpen");
    let write_pdf = pb.func("t2p_write_pdf");
    let sample = pb.func("t2p_readwrite_pdf_image");
    let pdfbuf = pb.slot();
    let victim = pb.slot();

    pb.define(open, |_| {});
    pb.define(write_pdf, |b| {
        // realloc(NULL, n) — the transcoder's growing output buffer.
        b.realloc(pdfbuf, Expr::Input(0).mul(Expr::Const(8)));
        b.alloc(victim, AllocFn::Malloc, Expr::Input(0).mul(Expr::Const(8)));
        b.write(victim, 0u64, 8u64, 0x11);
        b.call(sample);
    });
    pb.define(sample, |b| {
        // The under-accounted write.
        b.write(
            pdfbuf,
            0u64,
            Expr::Input(1).mul(Expr::Const(8)),
            ATTACK_BYTE,
        );
        b.read(victim, 0u64, 8u64, Sink::Leak);
        b.free(victim);
        b.free(pdfbuf);
    });
    pb.define(main, |b| {
        b.call(open);
        b.call(write_pdf);
    });

    VulnApp {
        name: "tiff-4.0.8".into(),
        reference: "CVE-2017-9935".into(),
        expected: VulnFlags::OVERFLOW,
        program: pb.build(),
        benign_inputs: vec![vec![8, 8]],
        attack_inputs: vec![vec![8, 24]],
        success_markers: vec![vec![ATTACK_BYTE; 8]],
    }
}

/// CVE-2018-7253 — WavPack use after free in the DSD header parser.
///
/// A malformed DSD header frees the decoder context on a parse error but the
/// unpacker still dereferences it after the attacker's audio payload has
/// reclaimed the block. Inputs: `[trigger_error_path]`.
pub fn wavpack() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let open = pb.func("WavpackOpenFileInputEx64");
    let read_hdr = pb.func("read_wavpack_header");
    let parse_dsd = pb.func("ParseDsdiffHeaderConfig");
    let unpack = pb.func("WavpackUnpackSamples");
    let payload = pb.func("read_audio_block");
    let ctx = pb.slot();
    let audio = pb.slot();

    pb.define(parse_dsd, |b| {
        b.alloc(ctx, AllocFn::Malloc, 80u64);
        b.write(ctx, 0u64, 80u64, 0x11);
        b.when(Expr::Input(0), |b| b.free(ctx));
    });
    pb.define(read_hdr, |b| b.call(parse_dsd));
    pb.define(open, |b| b.call(read_hdr));
    pb.define(payload, |b| {
        b.alloc(audio, AllocFn::Malloc, 80u64);
        b.write(audio, 0u64, 80u64, SPRAY_BYTE);
    });
    pb.define(unpack, |b| {
        b.read(ctx, 0u64, 8u64, Sink::Addr);
        b.read(ctx, 0u64, 8u64, Sink::Leak);
        b.free(audio);
    });
    pb.define(main, |b| {
        b.call(open);
        b.call(payload);
        b.call(unpack);
    });

    VulnApp {
        name: "wavpack-5.1.0".into(),
        reference: "CVE-2018-7253".into(),
        expected: VulnFlags::USE_AFTER_FREE,
        program: pb.build(),
        benign_inputs: vec![vec![0]],
        attack_inputs: vec![vec![1]],
        success_markers: vec![vec![SPRAY_BYTE; 8]],
    }
}

/// CVE-2018-7877 — libming heap overflow (`calloc`'d buffer).
///
/// The SWF MP3 parser `calloc`s a frame table sized from one header field
/// but fills it using another; a crafted file overflows into the adjacent
/// movie object. Inputs: `[frame_count, write_count]` (×4 bytes each).
pub fn libming() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let parse = pb.func("parseSWF_DEFINESOUND");
    let mp3 = pb.func("writeMp3Headers");
    let frames = pb.slot();
    let victim = pb.slot();

    pb.define(mp3, |b| {
        b.alloc(frames, AllocFn::Calloc, Expr::Input(0).mul(Expr::Const(4)));
        b.alloc(victim, AllocFn::Malloc, Expr::Input(0).mul(Expr::Const(4)));
        b.write(victim, 0u64, 8u64, 0x11);
        b.write(
            frames,
            0u64,
            Expr::Input(1).mul(Expr::Const(4)),
            ATTACK_BYTE,
        );
        b.read(victim, 0u64, 8u64, Sink::Leak);
        b.free(victim);
        b.free(frames);
    });
    pb.define(parse, |b| b.call(mp3));
    pb.define(main, |b| b.call(parse));

    VulnApp {
        name: "libming-0.4.8".into(),
        reference: "CVE-2018-7877".into(),
        expected: VulnFlags::OVERFLOW,
        program: pb.build(),
        benign_inputs: vec![vec![16, 16]],
        attack_inputs: vec![vec![16, 48]],
        success_markers: vec![vec![ATTACK_BYTE; 8]],
    }
}

/// §IX's hard case: one vulnerability exploitable through **multiple
/// calling contexts**.
///
/// Two request handlers share the buggy copy routine; an attacker who finds
/// the first context patched simply drives the exploit down the second. The
/// paper's answer is another defense-generation cycle per new context —
/// exercised by `HeapTherapy::full_cycle` with more than one round.
///
/// Inputs: `[path_selector, element_count, write_count]`.
pub fn multi_context_overflow() -> VulnApp {
    let mut pb = ProgramBuilder::new();
    let main = pb.entry();
    let handler_a = pb.func("handle_get");
    let handler_b = pb.func("handle_post");
    let copy = pb.func("buggy_copy");
    let buf = pb.slot();
    let victim = pb.slot();

    pb.define(copy, |b| {
        b.alloc(buf, AllocFn::Malloc, Expr::Input(1).mul(Expr::Const(8)));
        b.alloc(victim, AllocFn::Malloc, Expr::Input(1).mul(Expr::Const(8)));
        b.write(victim, 0u64, 8u64, 0x11);
        b.write(buf, 0u64, Expr::Input(2).mul(Expr::Const(8)), ATTACK_BYTE);
        b.read(victim, 0u64, 8u64, Sink::Leak);
        b.free(victim);
        b.free(buf);
    });
    pb.define(handler_a, |b| b.call(copy));
    pb.define(handler_b, |b| b.call(copy));
    pb.define(main, |b| {
        b.if_else(Expr::Input(0), |b| b.call(handler_a), |b| b.call(handler_b));
    });

    VulnApp {
        name: "multictx-overflow".into(),
        reference: "§IX multi-CCID".into(),
        expected: VulnFlags::OVERFLOW,
        program: pb.build(),
        benign_inputs: vec![vec![1, 8, 8], vec![0, 8, 8]],
        // Two attack instances exploiting the SAME bug through DIFFERENT
        // contexts.
        attack_inputs: vec![vec![1, 8, 24], vec![0, 8, 24]],
        success_markers: vec![vec![ATTACK_BYTE; 8]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::Strategy;
    use ht_encoding::{InstrumentationPlan, Scheme};
    use ht_simprog::{Interpreter, PlainBackend};

    /// Undefended, every model's attack must actually work, and every
    /// benign input must stay clean — the Table II baseline.
    #[test]
    fn attacks_succeed_and_benign_runs_are_clean_undefended() {
        for app in crate::table2_suite() {
            let plan =
                InstrumentationPlan::build(app.program.graph(), Strategy::Incremental, Scheme::Pcc);
            for attack in &app.attack_inputs {
                let rep = Interpreter::new(&app.program, &plan, PlainBackend::new()).run(attack);
                assert!(
                    app.attack_succeeded(&rep),
                    "{}: attack {attack:?} should succeed undefended (outcome {:?})",
                    app.name,
                    rep.outcome
                );
            }
            for benign in &app.benign_inputs {
                let rep = Interpreter::new(&app.program, &plan, PlainBackend::new()).run(benign);
                assert!(
                    rep.outcome.is_completed(),
                    "{}: benign {benign:?} must complete: {:?}",
                    app.name,
                    rep.outcome
                );
                assert!(
                    !app.attack_succeeded(&rep),
                    "{}: benign {benign:?} must not trip the success marker",
                    app.name
                );
            }
        }
    }

    #[test]
    fn heartbleed_leaks_secret_undefended() {
        let app = heartbleed();
        let plan = InstrumentationPlan::build(app.program.graph(), Strategy::Slim, Scheme::Pcc);
        let rep =
            Interpreter::new(&app.program, &plan, PlainBackend::new()).run(&app.attack_inputs[0]);
        let secret_bytes = rep.leaked.iter().filter(|&&b| b == SECRET_BYTE).count();
        assert!(
            secret_bytes > 30_000,
            "bulk of the session key material leaks: {secret_bytes}"
        );
    }

    #[test]
    fn single_roots() {
        for app in crate::table2_suite() {
            assert_eq!(
                app.program.graph().roots(),
                vec![app.program.entry()],
                "{}",
                app.name
            );
        }
    }
}
