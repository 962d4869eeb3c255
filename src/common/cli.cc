#include "common/cli.hh"

#include <cstring>
#include <thread>

namespace stitch::cli
{

bool
keyedValue(const char *arg, const char *prefix, std::string *out)
{
    std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0)
        return false;
    *out = arg + n;
    return true;
}

int
resolveJobs(int requested)
{
    if (requested == 0)
        requested =
            static_cast<int>(std::thread::hardware_concurrency());
    return requested < 1 ? 1 : requested;
}

} // namespace stitch::cli
