#include "pbio/registry.hpp"

namespace xmit::pbio {

std::size_t FormatRegistry::shard_of_name(std::string_view name) {
  // FNV-1a 64, same dispersion the FormatId itself uses.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return static_cast<std::size_t>((h ^ (h >> 32)) & (kShardCount - 1));
}

Result<FormatPtr> FormatRegistry::register_format(std::string name,
                                                  std::vector<IOField> fields,
                                                  std::uint32_t struct_size,
                                                  const ArchInfo& arch) {
  // Resolve nested references against already-registered formats.
  std::vector<FormatPtr> nested;
  for (const auto& field : fields) {
    XMIT_ASSIGN_OR_RETURN(auto type, parse_field_type(field.type_name));
    if (type.kind != FieldKind::kNested) continue;
    bool have = false;
    for (const auto& existing : nested)
      if (existing->name() == type.nested_format) have = true;
    if (have) continue;
    XMIT_ASSIGN_OR_RETURN(auto sub, by_name(type.nested_format));
    nested.push_back(std::move(sub));
  }
  XMIT_ASSIGN_OR_RETURN(
      auto format, Format::make(std::move(name), std::move(fields),
                                struct_size, arch, std::move(nested)));
  return adopt(std::move(format));
}

Result<FormatPtr> FormatRegistry::adopt(FormatPtr format) {
  if (!format)
    return Status(ErrorCode::kInvalidArgument, "null format");
  {
    auto& shard = id_shards_[shard_of(format->id())];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Same id means same canonical description: idempotent re-register.
    auto [it, inserted] = shard.formats.emplace(format->id(), format);
    if (!inserted) return it->second;
  }
  auto& names = name_shards_[shard_of_name(format->name())];
  std::lock_guard<std::mutex> lock(names.mutex);
  names.formats[format->name()] = format;
  return format;
}

Result<FormatPtr> FormatRegistry::by_id(FormatId id) const {
  const auto& shard = id_shards_[shard_of(id)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.formats.find(id);
    if (it != shard.formats.end()) return it->second;
  }
  return Status(ErrorCode::kNotFound,
                "no format with id " + std::to_string(id));
}

Result<FormatPtr> FormatRegistry::by_name(std::string_view name) const {
  const auto& shard = name_shards_[shard_of_name(name)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.formats.find(std::string(name));
  if (it == shard.formats.end())
    return Status(ErrorCode::kNotFound,
                  "no format named '" + std::string(name) + "'");
  return it->second;
}

std::size_t FormatRegistry::size() const { return stats().formats; }

std::vector<FormatPtr> FormatRegistry::all() const {
  std::vector<FormatPtr> out;
  for (const auto& shard : id_shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [id, format] : shard.formats) out.push_back(format);
  }
  return out;
}

FormatRegistry::Stats FormatRegistry::stats() const {
  Stats out;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    std::lock_guard<std::mutex> lock(id_shards_[i].mutex);
    out.shard_sizes[i] = id_shards_[i].formats.size();
    out.formats += out.shard_sizes[i];
  }
  return out;
}

}  // namespace xmit::pbio
