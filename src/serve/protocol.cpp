#include "src/serve/protocol.hpp"

namespace nsc::serve {

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kNoSuchSession: return "no-such-session";
    case ErrorCode::kNoSuchNetwork: return "no-such-network";
    case ErrorCode::kAdmissionRefused: return "admission-refused";
    case ErrorCode::kBadCheckpoint: return "bad-checkpoint";
    case ErrorCode::kLimitExceeded: return "limit-exceeded";
    case ErrorCode::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_error(ErrorCode code, const std::string& msg) {
  std::vector<std::uint8_t> buf;
  buf.reserve(sizeof(ErrorReply) + msg.size());
  const ErrorReply hdr{static_cast<std::uint32_t>(code),
                       static_cast<std::uint32_t>(msg.size())};
  ipc::put_pod(buf, hdr);
  buf.insert(buf.end(), msg.begin(), msg.end());
  return buf;
}

ErrorCode decode_error(const std::vector<std::uint8_t>& payload, std::string& msg_out) {
  msg_out.clear();
  std::size_t off = 0;
  ErrorReply hdr{};
  try {
    hdr = ipc::get_pod<ErrorReply>(payload, off);
  } catch (const std::exception&) {
    return ErrorCode::kBadRequest;
  }
  const std::size_t avail = payload.size() - off;
  const std::size_t n = hdr.msg_len < avail ? hdr.msg_len : avail;
  msg_out.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                 payload.begin() + static_cast<std::ptrdiff_t>(off + n));
  return static_cast<ErrorCode>(hdr.code);
}

}  // namespace nsc::serve
