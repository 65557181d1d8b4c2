#include "minic_gen.hpp"

#include <sstream>

#include "support/prng.hpp"

namespace perfbench {

namespace {

constexpr int kVars = 12;
constexpr int kArrayWords = 64;

/// Writes one program's text to a stream. Each helper writes one token
/// and draws from the PRNG in call order, so a seed fixes the text.
class Gen {
public:
  Gen(std::uint64_t seed, std::ostream& os)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 1), os_(os) {}

  int in(int lo, int hi) { return rng_.next_in(lo, hi); }
  void text(const char* t) { os_ << t; }
  void num(int lo, int hi) { os_ << in(lo, hi); }
  void var() { os_ << 'v' << in(0, kVars - 1); }
  void op() {
    static const char* const kOps[] = {" + ", " - ", " * ",
                                       " ^ ", " & ", " | "};
    os_ << kOps[in(0, 5)];
  }

  /// An expression of two or three operators over locals and constants.
  void expr() {
    switch (in(0, 5)) {
      case 0:
        text("("); var(); op(); var(); text(")"); op(); num(1, 1000);
        break;
      case 1:
        text("("); var(); text(" << "); num(1, 7); text(") ^ (");
        var(); text(" >>> "); num(1, 9); text(")");
        break;
      case 2:
        text(in(0, 1) ? "min(" : "max("); var(); text(", "); var();
        text(") + "); var();
        break;
      case 3:
        text("("); var(); text(" >> "); num(1, 5); text(")"); op(); var();
        break;
      case 4:
        var(); text(" * "); num(3, 97); text(" + "); var();
        break;
      default:
        text("("); var(); op(); var(); text(")"); op();
        text("("); var(); op(); var(); text(")");
        break;
    }
  }

  /// One statement of the straight-line region: an array load or
  /// store, a guarded assignment, or an arithmetic assignment.
  void stmt() {
    const int d = in(0, kVars - 1);
    text("    ");
    switch (in(0, 7)) {
      case 0:
        var(); text(" += ga[("); var(); text(" >>> "); num(0, 9);
        text(") & 63];");
        break;
      case 1:
        text("gb["); var(); text(" & 63] = "); var(); op(); var(); text(";");
        break;
      case 2:
        text("if ("); var(); text(" < "); var();
        os_ << ") v" << d << " = v" << d;
        op(); var(); text(";");
        break;
      case 3:
        text("if (("); var();
        os_ << " & " << (1 << in(0, 7)) << ") != 0) v" << d << " ^= ";
        var(); text(";");
        break;
      default:
        os_ << 'v' << d << " = ";
        expr();
        text(";");
        break;
    }
    text("\n");
  }

private:
  cepic::Prng rng_;
  std::ostream& os_;
};

}  // namespace

std::string generate_minic(std::uint64_t seed, int block_stmts) {
  std::ostringstream s;
  Gen g(seed ^ (static_cast<std::uint64_t>(block_stmts) << 40), s);
  s << "// generated: seed " << seed << ", " << block_stmts
    << "-statement region\n"
    << "int ga[" << kArrayWords << "];\n"
    << "int gb[" << kArrayWords << "];\n\n"
    << "int fill(int t[], int n, int x) {\n"
    << "  for (int i = 0; i < n; i++) {\n"
    << "    x ^= x << 13; x ^= x >>> 17; x ^= x << 5;\n"
    << "    t[i] = x;\n"
    << "  }\n"
    << "  return x;\n"
    << "}\n\n"
    << "int mix(int a, int b) {\n"
    << "  int s = a;\n"
    << "  for (int i = 0; i < " << g.in(2, 5) << "; i++) {\n"
    << "    s = s * " << g.in(3, 61) << " + (b ^ i);\n"
    << "    if (s < 0) s = s >>> " << g.in(1, 4) << ";\n"
    << "  }\n"
    << "  return s;\n"
    << "}\n\n"
    << "int main() {\n";
  for (int v = 0; v < kVars; ++v) {
    s << "  int v" << v << " = " << g.in(-100000, 100000) << ";\n";
  }
  s << "  v0 = fill(ga, " << kArrayWords << ", " << g.in(1, 1 << 30) << ");\n"
    << "  v1 = fill(gb, " << kArrayWords << ", " << g.in(1, 1 << 30) << ");\n"
    << "  for (int it = 0; it < " << g.in(3, 6) << "; it++) {\n";
  for (int i = 0; i < block_stmts; ++i) g.stmt();
  g.text("    ");
  g.var();
  g.text(" ^= mix(");
  g.var();
  g.text(", it);\n  }\n");
  for (int v = 0; v < kVars; ++v) s << "  out(v" << v << ");\n";
  s << "  int cks = 0;\n"
    << "  for (int i = 0; i < " << kArrayWords << "; i++) {\n"
    << "    cks = cks * 33 + (ga[i] ^ gb[i]);\n"
    << "  }\n"
    << "  out(cks);\n"
    << "  return cks;\n"
    << "}\n";
  return s.str();
}

}  // namespace perfbench
