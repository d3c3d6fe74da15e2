// xmit_validate: schema-check an XML instance document against a schema
// document — the paper's "schema-checking tools may be applied to live
// messages received from other parties to determine which of several
// structure definitions a message best matches".
//
// Usage (one command line; the continuation line is indented):
//   xmit_validate [--retries N] [--timeout-ms N]
//       <schema-url-or-path> <instance-path> [type-name]
// With a type name: validates against that type (exit 0 on success).
// Without: reports every type the instance matches.
// --retries/--timeout-ms make remote schema fetches resilient: transient
// failures (timeouts, 5xx, truncated responses) retry with backoff.
// --max-depth/--max-bytes/--max-alloc bound what parsing an untrusted
// document may consume (nesting levels, bytes per string/message, total
// decode allocation) — defaults are DecodeLimits::defaults().
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "net/fetch.hpp"
#include "xml/parser.hpp"
#include "xsd/parse.hpp"
#include "xsd/validate.hpp"

namespace {

xmit::Result<std::string> read_source(const std::string& source,
                                      const xmit::net::FetchOptions& options) {
  if (source.find("://") != std::string::npos)
    return xmit::net::fetch(source, options);
  return xmit::net::read_file(source);
}

bool parse_nonnegative(const char* text, int* out) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 1000000) return false;
  *out = static_cast<int>(value);
  return true;
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
  xmit::net::FetchOptions fetch_options;
  fetch_options.retry = xmit::net::RetryPolicy::none();
  xmit::DecodeLimits limits = xmit::DecodeLimits::defaults();
  bool lint = false;
  bool json = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    long long bound = 0;
    if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--format=json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--max-depth") == 0 && i + 1 < argc) {
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
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      if (!parse_nonnegative(argv[++i], &value)) {
        std::fprintf(stderr, "--retries wants a non-negative count, got '%s'\n",
                     argv[i]);
        return 2;
      }
      fetch_options.retry.max_attempts = value + 1;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      if (!parse_nonnegative(argv[++i], &value)) {
        std::fprintf(stderr,
                     "--timeout-ms wants a non-negative duration, got '%s'\n",
                     argv[i]);
        return 2;
      }
      fetch_options.timeout_ms = value;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: xmit_validate [--lint] [--format=json] "
                 "[--retries N] [--timeout-ms N] "
                 "[--max-depth N] [--max-bytes N] [--max-alloc N] "
                 "<schema-url-or-path> <instance-path> [type-name]\n");
    return 2;
  }

  auto schema_text = read_source(positional[0], fetch_options);
  if (!schema_text.is_ok()) {
    std::fprintf(stderr, "schema: %s\n",
                 schema_text.status().to_string().c_str());
    return 1;
  }
  auto schema = xmit::xsd::parse_schema_text(schema_text.value(), limits);
  if (!schema.is_ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().to_string().c_str());
    return 1;
  }
  if (lint) {
    auto findings = xmit::analysis::lint_schema(schema.value());
    if (!findings.is_ok()) {
      std::fprintf(stderr, "schema: lint layout failed: %s\n",
                   findings.status().to_string().c_str());
      return 1;
    }
    if (json) {
      std::string out = "{\"tool\":\"xmit_validate\",\"findings\":[";
      for (std::size_t i = 0; i < findings.value().size(); ++i) {
        if (i != 0) out += ",";
        out += xmit::analysis::to_json(findings.value()[i], positional[0]);
      }
      out += "]}\n";
      std::fputs(out.c_str(), stdout);
    } else {
      for (const auto& diagnostic : findings.value())
        std::fprintf(stderr, "schema: %s\n", diagnostic.to_string().c_str());
    }
    if (xmit::analysis::has_errors(findings.value())) return 1;
  }

  auto instance_text = xmit::net::read_file(positional[1]);
  if (!instance_text.is_ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 instance_text.status().to_string().c_str());
    return 1;
  }
  xmit::xml::ParseOptions instance_options;
  instance_options.limits = limits;
  auto instance = xmit::xml::parse_document_strict(instance_text.value(),
                                                   instance_options);
  if (!instance.is_ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 instance.status().to_string().c_str());
    return 1;
  }

  if (positional.size() >= 3) {
    const char* type_name = positional[2];
    const xmit::xsd::ComplexType* type = schema.value().type_named(type_name);
    if (type == nullptr) {
      std::fprintf(stderr, "schema has no type '%s'\n", type_name);
      return 1;
    }
    auto status = xmit::xsd::validate_instance(schema.value(), *type,
                                               instance.value().root_element());
    if (!status.is_ok()) {
      std::printf("INVALID against %s: %s\n", type_name,
                  status.to_string().c_str());
      return 1;
    }
    std::printf("VALID against %s\n", type_name);
    return 0;
  }

  auto matches =
      xmit::xsd::matching_types(schema.value(), instance.value().root_element());
  if (matches.empty()) {
    std::printf("instance matches no type in the schema (%zu types checked)\n",
                schema.value().types().size());
    return 1;
  }
  for (const auto& name : matches) std::printf("matches: %s\n", name.c_str());
  return 0;
}
