#pragma once

// Umbrella header for the hs::net serving transport.
//
//   * protocol.h — length-prefixed binary frame codec (requests,
//                  responses, typed NACKs with retry-after hints)
//   * socket.h   — POSIX fd/socket helpers shared by both sides
//   * server.h   — epoll front-end multiplexing connections onto a
//                  ServingEngine, with write backpressure + SIGTERM drain
//   * client.h   — blocking client + Backoff honoring NACK hints
//
// Deployment path: freeze -> [quantize] -> ServingEngine -> net::Server
// on one host; net::Client (or hsbench's open-loop generator) on the
// other. See DESIGN.md §12 and README "Network serving".

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
