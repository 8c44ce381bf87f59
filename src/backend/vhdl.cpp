#include "backend/vhdl.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

namespace {

// Signal name for the value produced by instruction `idx`.
std::string value_name(const Register_program& prog, std::size_t idx) {
    const Instruction& in = prog.instructions()[idx];
    switch (in.kind) {
        case Op_kind::constant: return cat("k_", idx);
        case Op_kind::input: return cat("i_", idx);
        default: return cat("r_", idx);
    }
}

std::string operand_name(const Register_program& prog, const Instruction& in, int i) {
    return value_name(prog, static_cast<std::size_t>(
                                in.operands[static_cast<std::size_t>(i)]));
}

}  // namespace

std::string cone_entity_name(const std::string& kernel_name, const Cone_spec& spec,
                             const Vhdl_options& options) {
    return cat(options.entity_prefix, "_", kernel_name, "_w", spec.window_width, "x",
               spec.window_height, "_d", spec.depth);
}

std::string emit_support_package(const Vhdl_options& options) {
    (void)options;
    std::ostringstream os;
    os << R"(-- islhls support entities: fixed-point divider and square root.
-- Behavioral bodies; any synthesis tool maps them to LUT/DSP structures.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity islhls_fixed_div is
  generic (WIDTH : integer := 16; FRAC : integer := 6);
  port (a : in  signed(WIDTH-1 downto 0);
        b : in  signed(WIDTH-1 downto 0);
        q : out signed(WIDTH-1 downto 0));
end entity islhls_fixed_div;

architecture behavioral of islhls_fixed_div is
begin
  process(a, b)
    variable wide : signed(2*WIDTH-1 downto 0);
  begin
    if b = to_signed(0, WIDTH) then
      q <= (others => '0');
    else
      wide := shift_left(resize(a, 2*WIDTH), FRAC) / resize(b, 2*WIDTH);
      q <= resize(wide, WIDTH);
    end if;
  end process;
end architecture behavioral;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity islhls_fixed_sqrt is
  generic (WIDTH : integer := 16; FRAC : integer := 6);
  port (a : in  signed(WIDTH-1 downto 0);
        q : out signed(WIDTH-1 downto 0));
end entity islhls_fixed_sqrt;

architecture behavioral of islhls_fixed_sqrt is
begin
  -- Non-restoring integer square root of (a << FRAC), so q is sqrt(a) in the
  -- same fixed-point format. Negative inputs (numerical noise) yield 0.
  process(a)
    variable radicand : unsigned(2*WIDTH-1 downto 0);
    variable result   : unsigned(2*WIDTH-1 downto 0);
    variable bit_v    : unsigned(2*WIDTH-1 downto 0);
  begin
    if a <= to_signed(0, WIDTH) then
      q <= (others => '0');
    else
      radicand := shift_left(resize(unsigned(std_logic_vector(a)), 2*WIDTH), FRAC);
      result := (others => '0');
      bit_v := (others => '0');
      bit_v(2*WIDTH-2) := '1';
      while bit_v > radicand loop
        bit_v := shift_right(bit_v, 2);
      end loop;
      while bit_v /= 0 loop
        if radicand >= result + bit_v then
          radicand := radicand - (result + bit_v);
          result := shift_right(result, 1) + bit_v;
        else
          result := shift_right(result, 1);
        end if;
        bit_v := shift_right(bit_v, 2);
      end loop;
      q <= resize(signed(std_logic_vector(result)), WIDTH);
    end if;
  end process;
end architecture behavioral;
)";
    return os.str();
}

std::string emit_cone(const Cone& cone, const std::string& kernel_name,
                      const Vhdl_options& options) {
    const Register_program prog = cone.lower();
    const Fixed_format& fmt = options.format;
    const int width = fmt.total_bits();
    const int frac = fmt.frac_bits;
    const std::string entity = cone_entity_name(kernel_name, cone.spec(), options);
    const int in_count = prog.input_count();
    const int out_count = static_cast<int>(prog.outputs().size());

    std::ostringstream os;
    os << "-- Generated by the islhls flow. " << to_string(cone.spec()) << "\n"
       << "-- kernel: " << kernel_name << ", format " << to_string(fmt) << "\n"
       << "-- registers: " << prog.register_count() << ", pipeline depth: "
       << prog.depth() << ", inputs: " << in_count << ", outputs: " << out_count
       << "\n"
       << "-- Latency model: inputs must be held stable; outputs are valid "
       << prog.depth() << " cycles after en is asserted.\n"
       << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"
       << "entity " << entity << " is\n"
       << "  generic (WIDTH : integer := " << width << "; FRAC : integer := " << frac
       << ");\n"
       << "  port (clk  : in  std_logic;\n"
       << "        rst  : in  std_logic;\n"
       << "        en   : in  std_logic;\n"
       << "        din  : in  std_logic_vector(" << in_count * width
       << "-1 downto 0);\n"
       << "        dout : out std_logic_vector(" << out_count * width
       << "-1 downto 0));\n"
       << "end entity " << entity << ";\n\n"
       << "architecture rtl of " << entity << " is\n";

    const auto& instrs = prog.instructions();
    // Declarations.
    int input_ordinal = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        switch (in.kind) {
            case Op_kind::constant:
                os << "  constant k_" << i << " : signed(WIDTH-1 downto 0) := to_signed("
                   << to_raw(in.value, fmt) << ", WIDTH);\n";
                break;
            case Op_kind::input:
                os << "  signal i_" << i << " : signed(WIDTH-1 downto 0); -- "
                   << cone.step().pool().field_name(in.field) << "[" << in.dx << ","
                   << in.dy << "]\n";
                ++input_ordinal;
                break;
            case Op_kind::div:
            case Op_kind::sqrt_op:
                os << "  signal d_" << i << " : signed(WIDTH-1 downto 0);\n";
                os << "  signal r_" << i << " : signed(WIDTH-1 downto 0); -- level "
                   << in.level << "\n";
                break;
            default:
                os << "  signal r_" << i << " : signed(WIDTH-1 downto 0); -- level "
                   << in.level << "\n";
                break;
        }
    }
    os << "  constant fixed_one : signed(WIDTH-1 downto 0) := to_signed("
       << to_raw(1.0, fmt) << ", WIDTH);\n";
    os << "begin\n";

    // Input unpacking (combinational aliases into the flat din vector).
    input_ordinal = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].kind != Op_kind::input) continue;
        os << "  i_" << i << " <= signed(din(" << (input_ordinal + 1)
           << "*WIDTH-1 downto " << input_ordinal << "*WIDTH));\n";
        ++input_ordinal;
    }
    os << "\n";

    // Divider / sqrt component instances (combinational results, registered
    // below like every other operation).
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        if (in.kind == Op_kind::div) {
            os << "  u_div_" << i
               << " : entity work.islhls_fixed_div generic map (WIDTH, FRAC)"
               << " port map (a => " << operand_name(prog, in, 0) << ", b => "
               << operand_name(prog, in, 1) << ", q => d_" << i << ");\n";
        } else if (in.kind == Op_kind::sqrt_op) {
            os << "  u_sqrt_" << i
               << " : entity work.islhls_fixed_sqrt generic map (WIDTH, FRAC)"
               << " port map (a => " << operand_name(prog, in, 0) << ", q => d_" << i
               << ");\n";
        }
    }
    os << "\n  datapath : process(clk)\n  begin\n    if rising_edge(clk) then\n"
       << "      if rst = '1' then\n        null;\n"
       << "      elsif en = '1' then\n";

    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        if (!is_operation(in.kind)) continue;
        const std::string r = cat("r_", i);
        auto a = [&] { return operand_name(prog, in, 0); };
        auto b = [&] { return operand_name(prog, in, 1); };
        auto c = [&] { return operand_name(prog, in, 2); };
        os << "        ";
        switch (in.kind) {
            case Op_kind::add:
                os << r << " <= resize(" << a() << " + " << b() << ", WIDTH);\n";
                break;
            case Op_kind::sub:
                os << r << " <= resize(" << a() << " - " << b() << ", WIDTH);\n";
                break;
            case Op_kind::mul:
                os << r << " <= resize(shift_right(" << a() << " * " << b()
                   << ", FRAC), WIDTH);\n";
                break;
            case Op_kind::div:
            case Op_kind::sqrt_op:
                os << r << " <= d_" << i << ";\n";
                break;
            case Op_kind::min_op:
                os << r << " <= " << a() << " when " << a() << " < " << b()
                   << " else " << b() << ";\n";
                break;
            case Op_kind::max_op:
                os << r << " <= " << a() << " when " << a() << " > " << b()
                   << " else " << b() << ";\n";
                break;
            case Op_kind::neg:
                os << r << " <= resize(-" << a() << ", WIDTH);\n";
                break;
            case Op_kind::abs_op:
                os << r << " <= resize(abs(" << a() << "), WIDTH);\n";
                break;
            case Op_kind::lt:
                os << r << " <= fixed_one when " << a() << " < " << b()
                   << " else to_signed(0, WIDTH);\n";
                break;
            case Op_kind::le:
                os << r << " <= fixed_one when " << a() << " <= " << b()
                   << " else to_signed(0, WIDTH);\n";
                break;
            case Op_kind::eq:
                os << r << " <= fixed_one when " << a() << " = " << b()
                   << " else to_signed(0, WIDTH);\n";
                break;
            case Op_kind::select:
                os << r << " <= " << b() << " when " << a()
                   << " /= to_signed(0, WIDTH) else " << c() << ";\n";
                break;
            case Op_kind::constant:
            case Op_kind::input:
                break;
        }
    }
    os << "      end if;\n    end if;\n  end process datapath;\n\n";

    // Output packing.
    const auto& outs = prog.outputs();
    for (std::size_t o = 0; o < outs.size(); ++o) {
        os << "  dout(" << (o + 1) << "*WIDTH-1 downto " << o << "*WIDTH) <= "
           << "std_logic_vector(" << value_name(prog, static_cast<std::size_t>(outs[o]))
           << ");\n";
    }
    os << "end architecture rtl;\n";
    return os.str();
}

std::string emit_cone_testbench(const Cone& cone, const std::string& kernel_name,
                                const std::vector<double>& stimulus,
                                const std::vector<double>& expected,
                                const Vhdl_options& options) {
    // The port widths and the latency are cone statistics: no SSA needed.
    const Cone_stats& stats = cone.stats();
    const Fixed_format& fmt = options.format;
    const int width = fmt.total_bits();
    check_internal(stimulus.size() == static_cast<std::size_t>(stats.input_count),
                   "testbench stimulus arity mismatch");
    check_internal(expected.size() == static_cast<std::size_t>(stats.output_count),
                   "testbench expected arity mismatch");
    const std::string entity = cone_entity_name(kernel_name, cone.spec(), options);

    std::ostringstream os;
    os << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"
       << "entity tb_" << entity << " is\nend entity;\n\n"
       << "architecture sim of tb_" << entity << " is\n"
       << "  signal clk : std_logic := '0';\n  signal rst : std_logic := '1';\n"
       << "  signal en : std_logic := '0';\n"
       << "  signal din : std_logic_vector(" << stats.input_count * width
       << "-1 downto 0);\n"
       << "  signal dout : std_logic_vector(" << stats.output_count * width
       << "-1 downto 0);\nbegin\n"
       << "  clk <= not clk after 5 ns;\n\n"
       << "  dut : entity work." << entity << " port map (clk => clk, rst => rst, "
       << "en => en, din => din, dout => dout);\n\n"
       << "  stimulus : process\n  begin\n";
    for (std::size_t i = 0; i < stimulus.size(); ++i) {
        os << "    din(" << (i + 1) << "*" << width << "-1 downto " << i << "*" << width
           << ") <= std_logic_vector(to_signed(" << to_raw(stimulus[i], fmt) << ", "
           << width << "));\n";
    }
    os << "    wait for 20 ns;\n    rst <= '0';\n    en <= '1';\n"
       << "    wait for " << (stats.pipeline_depth + 2) * 10 << " ns;\n";
    for (std::size_t o = 0; o < expected.size(); ++o) {
        os << "    assert signed(dout(" << (o + 1) << "*" << width << "-1 downto " << o
           << "*" << width << ")) = to_signed(" << to_raw(expected[o], fmt) << ", "
           << width << ")\n      report \"output " << o << " mismatch\" severity "
           << "failure;\n";
    }
    os << "    report \"testbench passed\" severity note;\n    wait;\n"
       << "  end process;\nend architecture sim;\n";
    return os.str();
}

Vhdl_structure analyze_vhdl(const std::string& vhdl_text) {
    Vhdl_structure s;
    std::istringstream is(vhdl_text);
    std::string line;
    std::vector<std::string> seen_regs;
    while (std::getline(is, line)) {
        const std::string t = trim(line);
        if (starts_with(t, "r_")) {
            const std::size_t arrow = t.find("<=");
            const std::size_t space = t.find_first_of(" \t");
            if (arrow != std::string::npos && space != std::string::npos &&
                space < arrow) {
                const std::string name = t.substr(0, space);
                if (std::find(seen_regs.begin(), seen_regs.end(), name) ==
                    seen_regs.end()) {
                    seen_regs.push_back(name);
                }
            }
        }
        if (t.find("entity work.islhls_fixed_div") != std::string::npos) {
            s.divider_instances += 1;
        }
        if (t.find("entity work.islhls_fixed_sqrt") != std::string::npos) {
            s.sqrt_instances += 1;
        }
        auto parse_port_bits = [&](const char* port) -> int {
            // Port declarations look like "din  : in  std_logic_vector(N-1 ...";
            // alignment spacing between name and ':' varies.
            if (!starts_with(t, port)) return -1;
            const std::size_t after = std::string(port).size();
            const std::size_t colon = t.find_first_not_of(" \t", after);
            if (colon == std::string::npos || t[colon] != ':') return -1;
            const std::size_t open = t.find("std_logic_vector(");
            if (open == std::string::npos) return -1;
            const std::size_t start = open + std::string("std_logic_vector(").size();
            std::size_t end = start;
            while (end < t.size() && std::isdigit(static_cast<unsigned char>(t[end]))) {
                ++end;
            }
            if (end == start) return -1;
            return std::stoi(t.substr(start, end - start));
        };
        if (const int bits = parse_port_bits("din"); bits > 0) s.input_bits = bits;
        if (const int bits = parse_port_bits("dout"); bits > 0) s.output_bits = bits;
    }
    s.register_assignments = static_cast<int>(seen_regs.size());
    return s;
}

}  // namespace islhls
