//! Softcore binaries and the pre-linker/loader packing.
//!
//! The `-O0` flow (paper Sec. 6.1, Fig. 5) compiles each operator to "a
//! standalone binary in standard ELF format"; the pre-linker/loader (`pld`)
//! then "packs the binary with headers that indicate the final page number
//! and the memory address for each binary byte", and the generated driver
//! loads those bytes into the softcore memories over the linking network.

use crate::cpu::Cpu;
use crate::firmware::Intrinsic;

/// A compiled operator binary (the ELF analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftBinary {
    /// Operator name.
    pub name: String,
    /// Code words, loaded at address 0.
    pub code: Vec<u32>,
    /// Initialized data sections (address, bytes) — array ROMs.
    pub data_init: Vec<(u32, Vec<u8>)>,
    /// Unified memory the operator needs (code + data + stack).
    pub mem_bytes: u32,
    /// Firmware intrinsic table referenced by `ecall`s in the code.
    pub intrinsics: Vec<Intrinsic>,
    /// Number of input stream ports.
    pub in_ports: u32,
    /// Number of output stream ports.
    pub out_ports: u32,
    /// Entry point.
    pub entry: u32,
}

impl SoftBinary {
    /// Instantiates a softcore with this binary loaded — the paper's
    /// "loads the packed ELF binaries into the appropriate softcore
    /// memories".
    pub fn instantiate(&self) -> Cpu {
        let mut cpu = Cpu::new(self.mem_bytes, self.intrinsics.clone());
        // Write code words straight into the fresh memory image — no
        // intermediate byte buffer, no invalidation (the cache is empty).
        for (dst, w) in cpu.mem[..self.code.len() * 4]
            .chunks_exact_mut(4)
            .zip(&self.code)
        {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        for (addr, bytes) in &self.data_init {
            cpu.load(*addr, bytes);
        }
        cpu.pc = self.entry;
        cpu
    }

    /// Total bytes the loader must move (code + initialized data): the
    /// quantity behind Sec. 5.2's "code and data footprint... typically
    /// 30–60 KB".
    pub fn load_bytes(&self) -> u64 {
        self.code.len() as u64 * 4
            + self
                .data_init
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>()
    }

    /// BRAM18s the unified memory consumes.
    pub fn bram18s(&self) -> u64 {
        (self.mem_bytes as u64 * 8).div_ceil(18 * 1024)
    }

    /// Packs the binary for a page (the pre-linker/loader step).
    pub fn pack(&self, page: u32) -> PackedBinary {
        let mut records = vec![(
            0u32,
            self.code
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<u8>>(),
        )];
        records.extend(self.data_init.iter().cloned());
        PackedBinary {
            operator: self.name.clone(),
            page,
            records,
        }
    }
}

/// A binary packed with load headers: the `pld` output of Fig. 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBinary {
    /// Operator name.
    pub operator: String,
    /// Destination page number.
    pub page: u32,
    /// Load records: (softcore memory address, bytes).
    pub records: Vec<(u32, Vec<u8>)>,
}

impl PackedBinary {
    /// Total payload bytes (what the driver streams over the NoC).
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Applies the load records to a softcore.
    pub fn load_into(&self, cpu: &mut Cpu) {
        for (addr, bytes) in &self.records {
            cpu.load(*addr, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;

    fn tiny_binary() -> SoftBinary {
        SoftBinary {
            name: "t".into(),
            code: vec![Instr::Ebreak.encode()],
            data_init: vec![(0x100, vec![1, 2, 3, 4])],
            mem_bytes: 4096,
            intrinsics: vec![],
            in_ports: 1,
            out_ports: 1,
            entry: 0,
        }
    }

    #[test]
    fn instantiate_loads_code_and_data() {
        let cpu = tiny_binary().instantiate();
        assert_eq!(cpu.peek_word(0), Instr::Ebreak.encode());
        assert_eq!(cpu.peek_word(0x100), 0x04030201);
    }

    #[test]
    fn pack_roundtrip() {
        let bin = tiny_binary();
        let packed = bin.pack(7);
        assert_eq!(packed.page, 7);
        assert_eq!(packed.payload_bytes(), 8);
        let mut cpu = Cpu::new(4096, vec![]);
        packed.load_into(&mut cpu);
        assert_eq!(cpu.peek_word(0x100), 0x04030201);
    }

    #[test]
    fn footprint_accounting() {
        let bin = tiny_binary();
        assert_eq!(bin.load_bytes(), 8);
        assert_eq!(bin.bram18s(), 2); // 4 KiB = 32 Kib over 18 Kib BRAMs
    }
}
