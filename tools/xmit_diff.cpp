// xmit_diff: what does a schema edit do to deployed components?
//
// Compares two versions of a schema document (URLs or paths), laying both
// out for the host architecture, and reports per-type field changes plus
// the authoritative verdict: will records of the old format still decode
// under the new one (PBIO restricted evolution)?
//
// Usage (one command line; the continuation line is indented):
//   xmit_diff [--max-depth N] [--max-bytes N] [--max-alloc N]
//       <old-schema> <new-schema> [type-name]
// Exit status: 0 all compared types convertible, 1 otherwise.
// --max-depth/--max-bytes/--max-alloc bound what parsing the (possibly
// remote, untrusted) schema documents may consume.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/fetch.hpp"
#include "pbio/diff.hpp"
#include "pbio/registry.hpp"
#include "xmit/xmit.hpp"

namespace {

using namespace xmit;

Result<std::string> read_source(const std::string& source) {
  if (source.find("://") != std::string::npos) return net::fetch(source);
  return net::read_file(source);
}

bool parse_positive(const char* text, long long* out) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DecodeLimits limits = DecodeLimits::defaults();
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    long long bound = 0;
    if (std::strcmp(argv[i], "--max-depth") == 0 && i + 1 < argc) {
      if (!parse_positive(argv[++i], &bound) || bound > 1000000) {
        std::fprintf(stderr, "--max-depth wants a positive count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_depth = static_cast<int>(bound);
    } else if (std::strcmp(argv[i], "--max-bytes") == 0 && i + 1 < argc) {
      if (!parse_positive(argv[++i], &bound)) {
        std::fprintf(stderr, "--max-bytes wants a positive byte count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_string_bytes = static_cast<std::size_t>(bound);
      limits.max_message_bytes = static_cast<std::size_t>(bound);
    } else if (std::strcmp(argv[i], "--max-alloc") == 0 && i + 1 < argc) {
      if (!parse_positive(argv[++i], &bound)) {
        std::fprintf(stderr, "--max-alloc wants a positive byte count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      limits.max_total_alloc = static_cast<std::uint64_t>(bound);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: xmit_diff [--max-depth N] [--max-bytes N] "
                 "[--max-alloc N] <old-schema> <new-schema> [type]\n");
    return 2;
  }

  pbio::FormatRegistry old_registry, new_registry;
  toolkit::Xmit old_xmit(old_registry), new_xmit(new_registry);
  old_xmit.set_limits(limits);
  new_xmit.set_limits(limits);
  for (auto& [path, xmit_ptr] :
       {std::pair<const char*, toolkit::Xmit*>{positional[0], &old_xmit},
        std::pair<const char*, toolkit::Xmit*>{positional[1], &new_xmit}}) {
    auto text = read_source(path);
    if (!text.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", path, text.status().to_string().c_str());
      return 2;
    }
    auto status = xmit_ptr->load_text(text.value(), path);
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", path, status.to_string().c_str());
      return 2;
    }
  }

  const char* type_filter = positional.size() >= 3 ? positional[2] : nullptr;
  bool all_convertible = true;
  int compared = 0;
  for (const auto& name : new_xmit.loaded_types()) {
    if (type_filter != nullptr && name != type_filter) continue;
    auto new_token = new_xmit.bind(name);
    if (!new_token.is_ok()) continue;
    auto old_token = old_xmit.bind(name);
    if (!old_token.is_ok()) {
      std::printf("%s: NEW TYPE (no old counterpart)\n\n", name.c_str());
      ++compared;
      continue;
    }
    auto diff = pbio::diff_formats(*old_token.value().format,
                                   *new_token.value().format);
    std::printf("%s: %u -> %u bytes\n%s\n", name.c_str(),
                old_token.value().format->struct_size(),
                new_token.value().format->struct_size(),
                diff.to_string().c_str());
    all_convertible = all_convertible && diff.convertible;
    ++compared;
  }
  for (const auto& name : old_xmit.loaded_types()) {
    if (type_filter != nullptr && name != type_filter) continue;
    if (!new_xmit.bind(name).is_ok())
      std::printf("%s: REMOVED TYPE (receivers binding it will fail)\n\n",
                  name.c_str());
  }
  if (compared == 0) {
    std::fprintf(stderr, "no matching types to compare\n");
    return 2;
  }
  return all_convertible ? 0 : 1;
}
