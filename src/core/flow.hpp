// The complete HLS flow of the paper (Fig. 2), as a single facade:
//
//   C source ──► frontend (parse + sema) ──► symbolic execution
//            ──► cone identification / construction (register reuse)
//            ──► VHDL generation
//            ──► area (Eq. 1) + throughput estimation
//            ──► design space exploration ──► Pareto set / device fit
//
// Typical use:
//
//   Flow_options opt;
//   opt.iterations = 10;
//   Hls_flow flow = Hls_flow::from_source(my_kernel_c, opt);
//   auto pareto = flow.pareto();          // area/throughput trade-off set
//   auto fit    = flow.device_fit();      // best design for opt.device
//   std::string vhdl = flow.generate_vhdl(4, 2);  // 4x4-window depth-2 cone
#pragma once

#include <memory>
#include <string>

#include "backend/vhdl.hpp"
#include "dse/explorer.hpp"
#include "kernels/kernels.hpp"
#include "symexec/executor.hpp"

namespace islhls {

struct Flow_options {
    int iterations = 10;
    int frame_width = 1024;
    int frame_height = 768;
    std::string device = "xc6vlx760";
    Fixed_format format;          // hardware number format
    Symexec_options symexec;      // analysis bounds
    Space_options space;          // exploration bounds (iterations copied in)
    Throughput_params throughput; // resource model knobs
    std::vector<int> calibration_windows = {1, 2};  // alpha syntheses
};

class Hls_flow {
public:
    // Runs the frontend + symbolic execution on a C kernel.
    static Hls_flow from_source(const std::string& c_source,
                                const Flow_options& options = {});
    // Uses a built-in kernel's source (and its registry name).
    static Hls_flow from_kernel(const Kernel_def& kernel,
                                const Flow_options& options = {});

    const std::string& kernel_name() const { return kernel_name_; }
    const Flow_options& options() const { return options_; }
    const Stencil_step& step() const { return library_->step(); }
    Cone_library& cones() { return *library_; }
    Explorer& explorer() { return *explorer_; }
    const Fpga_device& device() const;

    // --- deliverables ------------------------------------------------------------
    // Synthesizable VHDL for one cone (entity only; pair with support_package()).
    std::string generate_vhdl(int window, int depth);
    std::string support_package() const;

    // Exploration entry points (see Explorer).
    Pareto_result pareto();
    Fit_result device_fit();
    Area_validation area_validation();

    // Human-readable flow summary (dependencies, footprint, cone examples).
    std::string describe();

private:
    Hls_flow(Stencil_step step, std::string kernel_name, const Flow_options& options);

    Flow_options options_;
    std::string kernel_name_;
    std::unique_ptr<Cone_library> library_;
    std::unique_ptr<Explorer> explorer_;
};

}  // namespace islhls
