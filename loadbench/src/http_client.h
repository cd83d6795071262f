#ifndef LOADBENCH_HTTP_CLIENT_H_
#define LOADBENCH_HTTP_CLIENT_H_

#include <string>
#include <string_view>

#include "aqua/common/result.h"

namespace loadbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// Sends `request` (complete HTTP/1.1 bytes) to 127.0.0.1:`port` on a new
/// connection and reads the reply until the server closes it, as aquad
/// does after every response. kUnavailable when the connection fails or
/// the reply is truncated or unparseable.
aqua::Result<HttpReply> Exchange(int port, std::string_view request,
                                 int timeout_ms);

}  // namespace loadbench

#endif  // LOADBENCH_HTTP_CLIENT_H_
