#include "core/requests.hpp"

#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "synth/device.hpp"

namespace islhls {

int parse_int(const std::string& text, const std::string& what) {
    try {
        std::size_t consumed = 0;
        const int value = std::stoi(text, &consumed);
        if (consumed != text.size()) throw Error("");
        return value;
    } catch (const std::exception&) {
        throw User_error(cat("bad ", what, " '", text, "', expected an integer"));
    }
}

Fixed_format parse_format(const std::string& text) {
    if (text.size() < 4 || (text[0] != 'Q' && text[0] != 'q')) {
        throw User_error(cat("bad format '", text, "', expected Qm.f"));
    }
    const auto dot = text.find('.');
    if (dot == std::string::npos) {
        throw User_error(cat("bad format '", text, "', expected Qm.f"));
    }
    Fixed_format fmt;
    fmt.integer_bits = parse_int(text.substr(1, dot - 1), "format");
    fmt.frac_bits = parse_int(text.substr(dot + 1), "format");
    if (fmt.integer_bits < 1 || fmt.frac_bits < 0) {
        throw User_error(cat("format '", text,
                             "' needs m >= 1 integer bits (the sign bit) and f >= 0"));
    }
    if (fmt.total_bits() < 2 || fmt.total_bits() > 62) {
        throw User_error(cat("format '", text, "' out of the 2..62 bit range"));
    }
    return fmt;
}

std::vector<std::string> parse_name_list(const std::string& value) {
    std::vector<std::string> names;
    for (const std::string& part : split(value, ',')) {
        const std::string name = trim(part);
        if (!name.empty()) names.push_back(name);
    }
    if (names.empty()) throw User_error(cat("empty list '", value, "'"));
    return names;
}

bool apply_sweep_option(Sweep_config& config, const std::string& name,
                        const std::function<std::string()>& value) {
    if (name == "kernels") {
        const std::string v = value();
        config.kernels = v == "all" ? kernel_names() : parse_name_list(v);
    } else if (name == "devices") {
        const std::string v = value();
        if (v == "all") {
            config.devices.clear();
            for (const Fpga_device& d : all_devices()) config.devices.push_back(d.name);
        } else {
            config.devices = parse_name_list(v);
        }
    } else if (name == "iterations") {
        config.iteration_counts.clear();
        for (const std::string& n : parse_name_list(value())) {
            config.iteration_counts.push_back(parse_int(n, "iteration count"));
        }
    } else if (name == "frame") {
        const std::string v = value();
        const auto x = v.find('x');
        if (x == std::string::npos) {
            throw User_error(cat("bad frame '", v, "', expected WxH"));
        }
        config.frame_width = parse_int(v.substr(0, x), "frame width");
        config.frame_height = parse_int(v.substr(x + 1), "frame height");
    } else if (name == "format") {
        config.format = parse_format(value());
    } else if (name == "threads") {
        config.space.threads = parse_int(value(), "thread count");
    } else if (name == "backend") {
        const std::string v = value();
        config.backends = v == "all" ? sweep_backends() : parse_name_list(v);
    } else if (name == "pareto") {
        config.with_pareto = true;
    } else if (name == "validate") {
        config.validate = true;
    } else if (name == "search-formats") {
        config.search_formats = true;
    } else if (name == "psnr") {
        const std::string v = value();
        try {
            std::size_t consumed = 0;
            config.format_search.target_psnr_db = std::stod(v, &consumed);
            if (consumed != v.size()) throw Error("");
        } catch (const std::exception&) {
            throw User_error(cat("bad PSNR target '", v, "', expected a number"));
        }
    } else if (name == "validate-fixed") {
        config.validate_fixed = true;
    } else {
        return false;
    }
    return true;
}

Sweep_config default_sweep_config() {
    Sweep_config config;
    config.iteration_counts = {10};
    config.devices = {"xc6vlx760"};
    return config;
}

std::vector<Sweep_config> parse_requests(const std::string& text,
                                         const std::string& name) {
    std::vector<Sweep_config> requests;
    bool in_request = false;
    int request_line = 0;
    Sweep_config config;
    const std::vector<std::string> lines = split(text, '\n');
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string line = trim(lines[i]);
        const std::string where = cat(name, ":", i + 1);
        if (line.empty() || line[0] == '#') continue;
        if (line == "request") {
            if (in_request) {
                throw User_error(cat(where, ": 'request' inside a request "
                                     "(missing 'end'?)"));
            }
            in_request = true;
            request_line = static_cast<int>(i + 1);
            config = default_sweep_config();
            continue;
        }
        if (line == "end") {
            if (!in_request) {
                throw User_error(cat(where, ": 'end' without a 'request'"));
            }
            if (config.kernels.empty()) {
                throw User_error(cat(name, ":", request_line,
                                     ": request needs a 'kernels' line"));
            }
            requests.push_back(std::move(config));
            in_request = false;
            continue;
        }
        if (!in_request) {
            throw User_error(cat(where, ": expected 'request', got '", line, "'"));
        }
        const auto space = line.find(' ');
        const std::string option = line.substr(0, space);
        const std::string rest =
            space == std::string::npos ? std::string() : trim(line.substr(space + 1));
        auto value = [&]() -> std::string {
            if (rest.empty()) throw User_error(cat("option '", option, "' needs a value"));
            return rest;
        };
        // Everything applying the line raises is a user mistake on that line.
        bool known = false;
        try {
            known = apply_sweep_option(config, option, value);
        } catch (const Error& e) {
            throw User_error(cat(where, ": ", e.what()));
        }
        if (!known) {
            throw User_error(cat(where, ": unknown request option '", option, "'"));
        }
        if (!rest.empty() && (option == "pareto" || option == "validate" ||
                              option == "search-formats" || option == "validate-fixed")) {
            throw User_error(cat(where, ": option '", option,
                                 "' does not take a value"));
        }
    }
    if (in_request) {
        throw User_error(cat(name, ":", request_line,
                             ": request never closed (missing 'end')"));
    }
    if (requests.empty()) {
        // Reported at the last line: the file ended without a request.
        throw User_error(cat(name, ":", lines.size(), ": no requests (expected "
                             "'request' ... 'end' blocks)"));
    }
    return requests;
}

}  // namespace islhls
