#include "store/paged_store.hpp"

#include <cstring>

namespace ipregel::store {

PagedStore::PagedStore(io::Vfs& vfs, std::string path)
    : vfs_(vfs), path_(std::move(path)) {
  try {
    file_ = vfs_.open(path_, io::Vfs::OpenMode::kRead);
    std::uint8_t block[kSuperblockBytes];
    const std::size_t got = file_->read_at(block, sizeof(block), 0);
    if (got != sizeof(block)) {
      throw PageError(PageErrorKind::kShortRead, path_, PageError::kNoPage, 1,
                      "superblock short read (" + std::to_string(got) + " of " +
                          std::to_string(sizeof(block)) + " bytes)");
    }
    if (const char* why = decode_superblock(block, sb_)) {
      throw PageError(PageErrorKind::kBadSuperblock, path_, PageError::kNoPage,
                      1, why);
    }
  } catch (const io::PowerLoss&) {
    throw;  // a dead disk keeps its dynamic type
  } catch (const io::IoError& e) {
    throw PageError(PageErrorKind::kIo, path_, PageError::kNoPage, 1,
                    e.what());
  }
}

std::span<const std::uint8_t> PagedStore::read_page(
    std::uint64_t index, std::uint8_t* page) const {
  if (index >= num_pages()) {
    throw PageError(PageErrorKind::kBadHeader, path_, index, 1,
                    "page index beyond the store's " +
                        std::to_string(num_pages()) + " pages");
  }
  const std::size_t stride = page_stride();
  std::size_t got = 0;
  try {
    got = file_->read_at(page, stride, sb_.page_offset(index));
  } catch (const io::PowerLoss&) {
    throw;
  } catch (const io::IoError& e) {
    throw PageError(PageErrorKind::kIo, path_, index, 1, e.what());
  }
  if (got != stride) {
    throw PageError(PageErrorKind::kShortRead, path_, index, 1,
                    "read " + std::to_string(got) + " of " +
                        std::to_string(stride) + " page bytes");
  }
  PageHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.magic != kPageMagic) {
    throw PageError(PageErrorKind::kBadHeader, path_, index, 1,
                    "bad page magic");
  }
  if (header.page_index != static_cast<std::uint32_t>(index)) {
    throw PageError(PageErrorKind::kBadHeader, path_, index, 1,
                    "page identifies as index " +
                        std::to_string(header.page_index));
  }
  if (header.payload_bytes > page_bytes()) {
    throw PageError(PageErrorKind::kBadHeader, path_, index, 1,
                    "payload length above page capacity");
  }
  const std::uint8_t* slot = page + kPageHeaderBytes;
  if (page_crc(header, slot, page_bytes()) != header.crc) {
    throw PageError(PageErrorKind::kBadCrc, path_, index, 1,
                    "page seal mismatch (silent corruption)");
  }
  return {slot, header.payload_bytes};
}

void PagedStore::load_section_bytes(Section s, std::uint8_t* out,
                                    std::size_t bytes) const {
  const SectionRef& ref = sb_.section(s);
  std::vector<std::uint8_t> page(page_stride());
  std::size_t at = 0;
  for (std::uint64_t p = 0; p < ref.num_pages; ++p) {
    const auto payload = read_page(ref.first_page + p, page.data());
    if (at + payload.size() > bytes) {
      throw PageError(PageErrorKind::kBadHeader, path_, ref.first_page + p, 1,
                      "section pages exceed the section's payload length");
    }
    std::memcpy(out + at, payload.data(), payload.size());
    at += payload.size();
  }
  if (at != bytes) {
    throw PageError(PageErrorKind::kBadHeader, path_, PageError::kNoPage, 1,
                    "section pages cover " + std::to_string(at) + " of " +
                        std::to_string(bytes) + " payload bytes");
  }
}

std::vector<std::uint64_t> PagedStore::load_u64_section(Section s) const {
  const SectionRef& ref = sb_.section(s);
  std::vector<std::uint64_t> out(ref.payload_bytes / sizeof(std::uint64_t));
  load_section_bytes(s, reinterpret_cast<std::uint8_t*>(out.data()),
                     ref.payload_bytes);
  return out;
}

std::vector<std::uint32_t> PagedStore::load_u32_section(Section s) const {
  const SectionRef& ref = sb_.section(s);
  std::vector<std::uint32_t> out(ref.payload_bytes / sizeof(std::uint32_t));
  load_section_bytes(s, reinterpret_cast<std::uint8_t*>(out.data()),
                     ref.payload_bytes);
  return out;
}

}  // namespace ipregel::store
