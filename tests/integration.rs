//! Cross-crate integration: the experimental clients interoperate, all
//! built on the same dynamic code generation core.

use ash::{Pipeline, Step};
use dpf::packet::{self, PacketSpec};
use dpf::DpfService;
use tcc::Program;

/// A C implementation of the Internet checksum, compiled at runtime by
/// tcc, must agree with the ASH reference and the vcode-fused pipeline
/// on packets synthesized by the DPF packet generator.
#[test]
fn three_clients_one_checksum() {
    let prog = Program::compile(
        "
        int cksum(char *data, int n) {
            int sum = 0;
            for (int i = 0; i < n; i += 2) {
                int hi = data[i] & 255;
                int lo = data[i + 1] & 255;
                sum += hi * 256 + lo;
            }
            while (sum >> 16) sum = (sum & 65535) + (sum >> 16);
            return (~sum) & 65535;
        }
        ",
    )
    .expect("tcc compiles");
    let packet = packet::build(&PacketSpec {
        payload_len: 70, // keep total length a multiple of 4
        ..PacketSpec::default()
    });
    assert_eq!(packet.len() % 4, 0);
    let reference = ash::reference::checksum(&packet);
    let from_c = prog
        .call_int("cksum", &[packet.as_ptr() as i64, packet.len() as i64])
        .expect("runs") as u16;
    assert_eq!(from_c, reference, "tcc-compiled C checksum");

    let p = Pipeline::compile(&[Step::Checksum]).expect("pipeline compiles");
    let mut copy = vec![0u8; packet.len()];
    let from_ash = p.run(&packet, &mut copy);
    assert_eq!(from_ash, reference, "vcode-fused pipeline checksum");
    assert_eq!(copy, packet, "pipeline copied the packet intact");
}

/// A demultiplex-then-process path: DPF classifies the packet, ASH
/// moves it into the "application buffer" with checksum verification —
/// the exokernel flow of paper §4.2/§4.3 end to end.
#[test]
fn demultiplex_then_deliver() {
    let dpf = DpfService::new();
    let ids = dpf.insert_all(packet::port_filter_set(8, 5000));
    assert!(dpf.is_native(), "dpf compiles");
    let dpf = dpf.reader();
    let deliver = Pipeline::compile(&[Step::Checksum]).expect("ash compiles");

    for (i, id) in ids.iter().enumerate() {
        let pkt = packet::build(&PacketSpec {
            dst_port: 5000 + i as u16,
            payload_len: 30,
            ..PacketSpec::default()
        });
        let who = dpf.classify(&pkt);
        assert_eq!(who, Some(*id), "demultiplexed to the right endpoint");
        let mut app_buf = vec![0u8; pkt.len()];
        let ck = deliver.run(&pkt, &mut app_buf);
        assert_eq!(app_buf, pkt);
        assert_eq!(ck, ash::reference::checksum(&pkt));
    }
}

/// tcc-compiled C can *be* a packet filter: the same predicate as a DPF
/// filter, with identical verdicts over a packet soup.
#[test]
fn c_filter_agrees_with_dpf() {
    let prog = Program::compile(
        "
        int is_tcp_port(char *p, int len, int port) {
            if (len < 38) return 0;
            if ((p[12] & 255) != 8 || (p[13] & 255) != 0) return 0;
            if ((p[23] & 255) != 6) return 0;
            int dport = (p[36] & 255) * 256 + (p[37] & 255);
            return dport == port;
        }
        ",
    )
    .expect("compiles");
    let dpf = DpfService::new();
    let id = dpf.insert(packet::tcp_port_filter(0x0a00_0002, 443).unwrap());
    assert!(dpf.is_native());

    for port in [80u16, 443, 8080] {
        for proto in [packet::IPPROTO_TCP, packet::IPPROTO_UDP] {
            let pkt = packet::build(&PacketSpec {
                dst_port: port,
                proto,
                ..PacketSpec::default()
            });
            let c_says = prog
                .call_int("is_tcp_port", &[pkt.as_ptr() as i64, pkt.len() as i64, 443])
                .unwrap()
                != 0;
            let dpf_says = dpf.classify(&pkt) == Some(id);
            assert_eq!(c_says, dpf_says, "port {port} proto {proto}");
        }
    }
}

/// The instruction-spec preprocessor drives an actual extension: parse
/// the paper's sqrt spec, confirm the composed names match the methods
/// the extension layer provides, and run the op natively.
#[test]
fn spec_language_matches_extension_layer() {
    let spec = vcode::spec::Spec::parse("(sqrt (rd, rs) (f fsqrts) (d fsqrtd))").unwrap();
    let names: Vec<String> = spec.instructions().iter().map(|d| d.name.clone()).collect();
    assert_eq!(names, ["sqrtf", "sqrtd"]);

    use vcode::target::Leaf;
    use vcode::{Assembler, RegClass};
    let mut mem = vcode_x64::ExecMem::new(4096).unwrap();
    let mut a = Assembler::<vcode_x64::X64>::lambda(mem.as_mut_slice(), "%d", Leaf::Yes).unwrap();
    let x = a.arg(0);
    let t = a.getreg_f(RegClass::Temp).unwrap();
    a.sqrtd(x, x, t); // hardware sqrtsd on this target
    a.retd(x);
    a.end().unwrap();
    let code = mem.finalize().unwrap();
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let f: extern "C" fn(f64) -> f64 = unsafe { code.as_fn() };
    assert_eq!(f(144.0), 12.0);
}

/// Generated code calling tcc-generated code: a vcode client marshals a
/// call to a C function compiled in the same process (the paper's
/// "dynamically generate function calls" ability, §2).
#[test]
fn vcode_calls_tcc_function() {
    use vcode::target::{JumpTarget, Leaf};
    use vcode::{Assembler, RegClass, Sig, Ty};
    let prog = Program::compile("int triple(int x) { return 3 * x; }").unwrap();
    let triple_addr = prog.addr("triple").unwrap();

    let mut mem = vcode_x64::ExecMem::new(4096).unwrap();
    let mut a = Assembler::<vcode_x64::X64>::lambda(mem.as_mut_slice(), "%i", Leaf::No).unwrap();
    let x = a.arg(0);
    let sig = Sig::parse("%i:%i").unwrap();
    let mut cf = a.call_begin(&sig);
    a.call_arg(&mut cf, 0, Ty::I, x);
    let r = a.getreg(RegClass::Temp).unwrap();
    a.call_end(cf, JumpTarget::Abs(triple_addr), Some(r));
    a.addii(r, r, 1);
    a.reti(r);
    a.end().unwrap();
    let code = mem.finalize().unwrap();
    // SAFETY: the buffer holds a complete emitted function matching this signature.
    let f: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    assert_eq!(f(10), 31);
}

/// The generic ASH pipeline runs on every simulated paper machine and
/// produces the right checksum and output bytes.
#[test]
fn generic_pipeline_on_all_simulated_targets() {
    let data: Vec<u8> = (0..256).map(|i| (i * 131 + 17) as u8).collect();
    let want_ck = ash::reference::checksum(&data);
    let want_swapped = ash::reference::swapped(&data);
    let steps = [Step::Checksum, Step::Swap];

    // MIPS.
    {
        let mut mem = vec![0u8; 8192];
        let fin = ash::generic::compile_fused::<vcode_mips::Mips>(&mut mem, &steps).unwrap();
        mem.truncate(fin.len);
        let mut m = vcode_sim::mips::Machine::new(1 << 20);
        m.strict_load_delay = true;
        let entry = m.load_code(&mem).unwrap();
        let src = m.alloc(data.len(), 8).unwrap();
        let dst = m.alloc(data.len(), 8).unwrap();
        m.write(src, &data).unwrap();
        let sum = m
            .call(entry, &[dst, src, (data.len() / 4) as u32], 1_000_000)
            .unwrap();
        assert_eq!(
            ash::generic::fold_le_halfwords(sum),
            want_ck,
            "mips checksum"
        );
        assert_eq!(
            m.read(dst, data.len()).unwrap(),
            &want_swapped[..],
            "mips swap"
        );
    }
    // SPARC.
    {
        let mut mem = vec![0u8; 8192];
        let fin = ash::generic::compile_fused::<vcode_sparc::Sparc>(&mut mem, &steps).unwrap();
        mem.truncate(fin.len);
        let mut m = vcode_sim::sparc::Machine::new(1 << 20);
        let entry = m.load_code(&mem).unwrap();
        let src = m.alloc(data.len(), 8).unwrap();
        let dst = m.alloc(data.len(), 8).unwrap();
        m.write(src, &data).unwrap();
        let sum = m
            .call(entry, &[dst, src, (data.len() / 4) as u32], 1_000_000)
            .unwrap();
        assert_eq!(
            ash::generic::fold_le_halfwords(sum),
            want_ck,
            "sparc checksum"
        );
        assert_eq!(
            m.read(dst, data.len()).unwrap(),
            &want_swapped[..],
            "sparc swap"
        );
    }
    // Alpha.
    {
        let mut mem = vec![0u8; 8192];
        let fin = ash::generic::compile_fused::<vcode_alpha::Alpha>(&mut mem, &steps).unwrap();
        mem.truncate(fin.len);
        let mut m = vcode_sim::alpha::Machine::new(1 << 20);
        let entry = m.load_code(&mem).unwrap();
        let src = m.alloc(data.len(), 8).unwrap();
        let dst = m.alloc(data.len(), 8).unwrap();
        m.write(src, &data).unwrap();
        let sum = m
            .call(entry, &[dst, src, (data.len() / 4) as u64], 1_000_000)
            .unwrap();
        assert_eq!(
            ash::generic::fold_le_halfwords(sum as u32),
            want_ck,
            "alpha checksum"
        );
        assert_eq!(
            m.read(dst, data.len()).unwrap(),
            &want_swapped[..],
            "alpha swap"
        );
    }
    // x86-64 (native, through the same generic generator).
    {
        let mut mem = vcode_x64::ExecMem::new(8192).unwrap();
        ash::generic::compile_fused::<vcode_x64::X64>(mem.as_mut_slice(), &steps).unwrap();
        let code = mem.finalize().unwrap();
        // SAFETY: the buffer holds a complete emitted function matching this signature.
        let f: extern "C" fn(*mut u8, *const u8, i32) -> u32 = unsafe { code.as_fn() };
        let mut dst = vec![0u8; data.len()];
        let sum = f(dst.as_mut_ptr(), data.as_ptr(), (data.len() / 4) as i32);
        assert_eq!(
            ash::generic::fold_le_halfwords(sum),
            want_ck,
            "x64 checksum"
        );
        assert_eq!(dst, want_swapped, "x64 swap");
    }
}
