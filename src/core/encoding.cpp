#include "core/encoding.hpp"

#include "support/bits.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic {

namespace {

// Flag bit positions inside the OPCODE field: the operation id occupies
// the low kOpIdBits bits, the literal flags sit directly above it.
constexpr unsigned s1_flag_bit = InstructionFormat::kOpIdBits + 0;
constexpr unsigned s2_flag_bit = InstructionFormat::kOpIdBits + 1;

std::uint64_t encode_src(const Operand& o, const OpInfo& info,
                         const InstructionFormat& fmt) {
  if (o.is_reg()) return o.reg;
  if (o.is_lit()) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.lit)) &
           mask64(fmt.src_bits);
  }
  (void)info;
  return 0;
}

}  // namespace

std::uint64_t encode_instruction(const Instruction& inst,
                                 const ProcessorConfig& cfg) {
  if (const std::string err = validate_instruction(inst, cfg); !err.empty()) {
    throw Error(cat("cannot encode `", to_string(inst), "`: ", err));
  }
  const InstructionFormat fmt = cfg.format();
  const OpInfo& info = inst.info();

  std::uint64_t opcode = static_cast<std::uint64_t>(inst.op);
  if (inst.src1.is_lit()) opcode |= std::uint64_t{1} << s1_flag_bit;
  if (inst.src2.is_lit()) opcode |= std::uint64_t{1} << s2_flag_bit;

  std::uint64_t word = 0;
  word = insert_bits(word, fmt.opcode_lo(), fmt.opcode_bits, opcode);
  word = insert_bits(word, fmt.dest1_lo(), fmt.dest_bits, inst.dest1);
  word = insert_bits(word, fmt.dest2_lo(), fmt.dest_bits, inst.dest2);
  word = insert_bits(word, fmt.src1_lo(), fmt.src_bits,
                     encode_src(inst.src1, info, fmt));
  word = insert_bits(word, fmt.src2_lo(), fmt.src_bits,
                     encode_src(inst.src2, info, fmt));
  word = insert_bits(word, fmt.pred_lo(), fmt.pred_bits, inst.pred);
  return word;
}

namespace {

Operand decode_src(std::uint64_t field, SrcSpec spec, bool is_lit, bool zext,
                   const InstructionFormat& fmt, std::string_view slot) {
  switch (spec) {
    case SrcSpec::None:
      return Operand::none();
    case SrcSpec::Gpr:
    case SrcSpec::Pred:
    case SrcSpec::Btr:
      if (is_lit) {
        throw Error(cat("decode: ", slot, " literal flag set on a "
                        "register-only operand"));
      }
      return Operand::r(static_cast<std::uint32_t>(field));
    case SrcSpec::LitOnly:
      if (!is_lit) {
        throw Error(cat("decode: ", slot, " must be a literal"));
      }
      break;
    case SrcSpec::GprOrLit:
      if (!is_lit) return Operand::r(static_cast<std::uint32_t>(field));
      break;
  }
  const std::int64_t value =
      zext ? static_cast<std::int64_t>(field)
           : sign_extend(field, fmt.src_bits);
  return Operand::imm(static_cast<std::int32_t>(value));
}

}  // namespace

Instruction decode_instruction(std::uint64_t word,
                               const ProcessorConfig& cfg) {
  const InstructionFormat fmt = cfg.format();
  // The field floors (15 + 2*6 + 2*16 + 5) already fill 64 bits and
  // validate() caps the format there, so every word bit is a field bit.
  CEPIC_CHECK(fmt.total_bits() == 64,
              "instruction formats of validated configs are 64 bits");

  const std::uint64_t opcode =
      extract_bits(word, fmt.opcode_lo(), fmt.opcode_bits);
  const std::uint64_t opid =
      opcode & mask64(InstructionFormat::kOpIdBits);
  const bool s1_lit = (opcode >> s1_flag_bit) & 1;
  const bool s2_lit = (opcode >> s2_flag_bit) & 1;

  if (opid >= kNumOps) {
    throw Error(cat("decode: unknown operation id ", opid));
  }
  const Op op = static_cast<Op>(opid);
  const OpInfo& info = op_info(op);
  if (info.name.empty()) {
    throw Error(cat("decode: unassigned operation id ", opid));
  }

  Instruction inst;
  inst.op = op;
  inst.dest1 =
      static_cast<std::uint32_t>(extract_bits(word, fmt.dest1_lo(), fmt.dest_bits));
  inst.dest2 =
      static_cast<std::uint32_t>(extract_bits(word, fmt.dest2_lo(), fmt.dest_bits));
  inst.src1 = decode_src(extract_bits(word, fmt.src1_lo(), fmt.src_bits),
                         info.src1, s1_lit, info.literal_zero_extends, fmt,
                         "src1");
  inst.src2 = decode_src(extract_bits(word, fmt.src2_lo(), fmt.src_bits),
                         info.src2, s2_lit, info.literal_zero_extends, fmt,
                         "src2");
  inst.pred =
      static_cast<std::uint32_t>(extract_bits(word, fmt.pred_lo(), fmt.pred_bits));

  if (const std::string err = validate_instruction(inst, cfg); !err.empty()) {
    throw Error(cat("decode: invalid instruction `", to_string(inst),
                    "`: ", err));
  }
  return inst;
}

}  // namespace cepic
