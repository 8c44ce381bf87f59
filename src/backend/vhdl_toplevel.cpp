#include "backend/vhdl_toplevel.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

std::string toplevel_entity_name(const std::string& kernel_name,
                                 const Arch_instance& instance,
                                 const Vhdl_options& options) {
    std::string levels;
    for (std::size_t i = 0; i < instance.level_depths.size(); ++i) {
        if (i > 0) levels += "x";
        levels += std::to_string(instance.level_depths[i]);
    }
    return cat(options.entity_prefix, "_", kernel_name, "_top_w", instance.window,
               "_l", levels);
}

std::string emit_architecture_toplevel(Cone_library& library,
                                       const Arch_instance& instance,
                                       const Vhdl_options& options) {
    check_internal(instance.window >= 1 && !instance.level_depths.empty(),
                   "emit_architecture_toplevel: malformed instance");
    const Stencil_step& step = library.step();
    const Footprint fp = step.footprint();
    const int w = instance.window;
    const int width_bits = options.format.total_bits();
    const int fields = step.pool().field_count();
    const int state_fields = step.state_field_count();

    const Coverage cov = level_coverages(w, instance.level_depths, fp);
    const std::size_t levels = instance.level_depths.size();
    const int in_side = std::max(cov.width[0], cov.height[0]);
    const long long in_words =
        static_cast<long long>(cov.width[0]) * cov.height[0] * fields;
    const long long out_words = static_cast<long long>(w) * w * state_fields;

    // Name: encode kernel + geometry.
    std::string level_tag;
    for (std::size_t i = 0; i < levels; ++i) {
        if (i > 0) level_tag += "x";
        level_tag += std::to_string(instance.level_depths[i]);
    }
    const std::string entity =
        toplevel_entity_name(library.kernel_name(), instance, options);

    // Depth classes and their cone entities.
    const std::vector<int> classes = instance.depth_classes();
    std::ostringstream os;
    os << "-- Generated by the islhls flow: top-level cone architecture.\n"
       << "-- kernel: " << library.kernel_name() << ", window " << w << "x" << w
       << ", levels [" << level_tag << "], format " << to_string(options.format)
       << "\n-- input coverage " << cov.width[0] << "x" << cov.height[0] << " ("
       << in_words << " words incl. " << fields << " field(s)), output " << w << "x"
       << w << " (" << out_words << " words)\n"
       << "-- Schedule: load window -> level-by-level cone executions over the\n"
       << "-- sub-tiles of each coverage (Fig. 3 of the paper) -> store.\n";
    os << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"
       << "entity " << entity << " is\n"
       << "  generic (WIDTH : integer := " << width_bits << ");\n"
       << "  port (clk          : in  std_logic;\n"
       << "        rst          : in  std_logic;\n"
       << "        start        : in  std_logic;\n"
       << "        -- off-chip input stream: one word per cycle, row-major,\n"
       << "        -- field-major over the input coverage\n"
       << "        s_in_valid   : in  std_logic;\n"
       << "        s_in_data    : in  std_logic_vector(WIDTH-1 downto 0);\n"
       << "        s_in_ready   : out std_logic;\n"
       << "        -- off-chip output stream: the computed window\n"
       << "        m_out_valid  : out std_logic;\n"
       << "        m_out_data   : out std_logic_vector(WIDTH-1 downto 0);\n"
       << "        m_out_ready  : in  std_logic;\n"
       << "        done         : out std_logic);\n"
       << "end entity " << entity << ";\n\n"
       << "architecture rtl of " << entity << " is\n";

    // Level buffers: ping/pong between consecutive levels. Size every buffer
    // for the largest coverage so one RAM type serves all levels.
    os << "  constant COV_SIDE   : integer := " << in_side << ";\n"
       << "  constant FIELDS     : integer := " << fields << ";\n"
       << "  constant WORDS      : integer := COV_SIDE*COV_SIDE*FIELDS;\n"
       << "  type ram_t is array (0 to WORDS-1) of signed(WIDTH-1 downto 0);\n"
       << "  signal buf_current : ram_t;  -- level k-1 surface\n"
       << "  signal buf_next    : ram_t;  -- level k surface under construction\n"
       << "  signal buf_output  : ram_t;  -- final window staging\n";

    // One cone instance per depth class.
    for (int d : classes) {
        const Cone& cone = library.cone(w, d);
        const std::string cone_entity =
            cone_entity_name(library.kernel_name(), cone.spec(), options);
        os << "  -- depth-" << d << " cone: " << cone.stats().input_count
           << " inputs, " << cone.stats().output_count << " outputs\n"
           << "  signal cone" << d << "_din  : std_logic_vector("
           << cone.stats().input_count << "*WIDTH-1 downto 0);\n"
           << "  signal cone" << d << "_dout : std_logic_vector("
           << cone.stats().output_count << "*WIDTH-1 downto 0);\n"
           << "  signal cone" << d << "_en   : std_logic;\n";
        (void)cone_entity;
    }

    os << "  type state_t is (st_idle, st_load, st_exec, st_drain, st_store, "
          "st_done);\n"
       << "  signal state      : state_t;\n"
       << "  signal load_count : integer range 0 to WORDS;\n"
       << "  signal level_idx  : integer range 0 to " << levels << ";\n"
       << "  signal tile_idx   : integer range 0 to COV_SIDE*COV_SIDE;\n"
       << "  signal wait_count : integer range 0 to 1023;\n"
       << "  signal store_count: integer range 0 to WORDS;\n"
       << "begin\n";

    // Cone instances.
    for (int d : classes) {
        const Cone& cone = library.cone(w, d);
        const std::string cone_entity =
            cone_entity_name(library.kernel_name(), cone.spec(), options);
        os << "  u_cone_d" << d << " : entity work." << cone_entity
           << " generic map (WIDTH => WIDTH, FRAC => " << options.format.frac_bits
           << ")\n    port map (clk => clk, rst => rst, en => cone" << d
           << "_en, din => cone" << d << "_din, dout => cone" << d << "_dout);\n";
    }

    // The sequencer. Input gathering / output scattering address arithmetic
    // is emitted as comments per level (the full mux trees are large; the
    // synthesis-relevant structure — states, counters, cone handshakes — is
    // explicit).
    os << "\n  sequencer : process(clk)\n  begin\n    if rising_edge(clk) then\n"
       << "      if rst = '1' then\n        state <= st_idle;\n"
       << "        load_count <= 0; level_idx <= 0; tile_idx <= 0;\n"
       << "        wait_count <= 0; store_count <= 0;\n"
       << "      else\n        case state is\n"
       << "          when st_idle =>\n            if start = '1' then state <= "
          "st_load; load_count <= 0; end if;\n"
       << "          when st_load =>\n"
       << "            if s_in_valid = '1' then\n"
       << "              buf_current(load_count) <= signed(s_in_data);\n"
       << "              if load_count = " << in_words - 1
       << " then state <= st_exec; level_idx <= 0; tile_idx <= 0;\n"
       << "              else load_count <= load_count + 1; end if;\n"
       << "            end if;\n"
       << "          when st_exec =>\n";
    for (std::size_t k = 0; k < levels; ++k) {
        const int d = instance.level_depths[k];
        const long long tiles = executions_for_level(cov, k + 1, w);
        const int latency = library.stats(w, d).pipeline_depth;
        os << "            -- level " << k + 1 << ": depth-" << d << " cone over "
           << tiles << " sub-tile(s) of the " << cov.width[k + 1] << "x"
           << cov.height[k + 1] << " coverage, latency " << latency << " cycles\n";
    }
    os << "            if level_idx = " << levels
       << " then state <= st_store; store_count <= 0;\n"
       << "            else\n"
       << "              -- gather cone inputs from buf_current at the tile\n"
       << "              -- origin (+ halo offsets), assert en, wait latency,\n"
       << "              -- scatter outputs into buf_next; advance tile/level.\n"
       << "              state <= st_drain; wait_count <= 0;\n"
       << "            end if;\n"
       << "          when st_drain =>\n"
       << "            -- cone pipeline drain for the in-flight tile\n"
       << "            if wait_count = 255 then state <= st_exec;\n"
       << "              if tile_idx = COV_SIDE*COV_SIDE then\n"
       << "                level_idx <= level_idx + 1; tile_idx <= 0;\n"
       << "                buf_current <= buf_next;\n"
       << "              else tile_idx <= tile_idx + 1; end if;\n"
       << "            else wait_count <= wait_count + 1; end if;\n"
       << "          when st_store =>\n"
       << "            if m_out_ready = '1' then\n"
       << "              if store_count = " << out_words - 1
       << " then state <= st_done;\n"
       << "              else store_count <= store_count + 1; end if;\n"
       << "            end if;\n"
       << "          when st_done =>\n            state <= st_idle;\n"
       << "        end case;\n      end if;\n    end if;\n  end process sequencer;\n\n";

    os << "  s_in_ready  <= '1' when state = st_load else '0';\n"
       << "  m_out_valid <= '1' when state = st_store else '0';\n"
       << "  m_out_data  <= std_logic_vector(buf_output(store_count));\n"
       << "  done        <= '1' when state = st_done else '0';\n";
    for (int d : classes) {
        os << "  cone" << d << "_en <= '1' when state = st_drain else '0';\n";
    }
    os << "end architecture rtl;\n";
    return os.str();
}

Toplevel_structure analyze_toplevel(const std::string& vhdl_text) {
    Toplevel_structure s;
    std::istringstream is(vhdl_text);
    std::string line;
    while (std::getline(is, line)) {
        const std::string t = trim(line);
        if (starts_with(t, "u_cone_d")) s.cone_instances += 1;
        if (starts_with(t, "signal buf_")) s.buffer_declarations += 1;
        if (t.find("type state_t is (") != std::string::npos) {
            s.fsm_states = 1;
            for (char c : t) {
                if (c == ',') s.fsm_states += 1;
            }
        }
        if (t.find("s_in_data") != std::string::npos) s.has_stream_in = true;
        if (t.find("m_out_data") != std::string::npos) s.has_stream_out = true;
    }
    return s;
}

}  // namespace islhls
