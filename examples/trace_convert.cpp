// trace_convert: converts between the three trace formats.
//
//   trace_convert <input> <output> [--to text|btrace|mtrace]
//
// The input format is detected from its magic bytes (hbct-trace v1,
// hbct-btrace v1, HBCTMTR1); the output format defaults to the extension
// (.trace / .btrace / .mtrace) and can be forced with --to. Converting a
// large text or btrace corpus to mtrace once makes every later load
// zero-copy (see "Loading huge traces" in README.md). Text and btrace
// input may come from a pipe (/dev/stdin); mtrace input is mapped, so it
// must be a file.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "poset/mtrace.h"
#include "poset/trace_io.h"

namespace {

int usage() {
  std::cerr << "usage: trace_convert <input> <output> [--to text|btrace|mtrace]\n";
  return 2;
}

std::string guess_format(const std::string& path) {
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  if (ext == "btrace") return "btrace";
  if (ext == "mtrace") return "mtrace";
  return "text";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];
  std::string to = guess_format(out_path);
  for (int a = 3; a < argc; ++a) {
    if (std::string(argv[a]) == "--to" && a + 1 < argc) {
      to = argv[++a];
    } else {
      return usage();
    }
  }
  if (to != "text" && to != "btrace" && to != "mtrace") return usage();

  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "trace_convert: cannot open " << in_path << "\n";
    return 1;
  }
  // Sniff the format from the first bytes, then parse those bytes and the
  // rest of the stream: a pipe (/dev/stdin) cannot seek back.
  std::string head(8, '\0');
  in.read(head.data(), 8);
  head.resize(static_cast<std::size_t>(in.gcount()));

  hbct::Computation c;
  if (head == hbct::kMtraceMagic) {
    in.close();
    auto r = hbct::load_mtrace(in_path);
    if (!r.ok) {
      std::cerr << "trace_convert: " << hbct::to_string(r.code) << ": "
                << r.error << "\n";
      return 1;
    }
    c = std::move(r.computation);
  } else {
    std::ostringstream buf;
    buf << head << in.rdbuf();
    auto r = head == "hbct-btr" ? hbct::trace_from_binary_string(buf.str())
                                : hbct::trace_from_string(buf.str());
    if (!r.ok) {
      std::cerr << "trace_convert: " << r.error << "\n";
      return 1;
    }
    c = std::move(r.computation);
  }

  if (to == "mtrace") {
    std::string err;
    if (!hbct::write_mtrace_file(out_path, c, &err)) {
      std::cerr << "trace_convert: " << err << "\n";
      return 1;
    }
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "trace_convert: cannot open " << out_path << " for writing\n";
      return 1;
    }
    if (to == "btrace")
      hbct::write_trace_binary(out, c);
    else
      hbct::write_trace(out, c);
    if (!out.flush()) {
      std::cerr << "trace_convert: write failed\n";
      return 1;
    }
  }
  std::cerr << "converted " << c.total_events() << " events ("
            << c.num_procs() << " procs) to " << to << "\n";
  return 0;
}
