// Kernels that read `gridDim`: in the partitioned clone it must mean the
// whole grid, as it does in the access model. `last` singles out the
// grid's last block, `mir` reads mirrored through `gridDim`, and
// `corner` is the 2-D form of both.

__global__ void last(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    b[i] = a[i];
    if (blockIdx.x == gridDim.x - 1) b[i] = 100.0f;
}

__global__ void mir(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    b[i] = a[gridDim.x - 1 - blockIdx.x] + 1.0f;
}

__global__ void corner(int n, float a[n][n], float b[n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= n) return;
    if (y >= n) return;
    b[y][x] = a[gridDim.y - 1 - blockIdx.y][gridDim.x - 1 - blockIdx.x] + 1.0f;
    if (blockIdx.y == gridDim.y - 1) b[y][x] = 100.0f;
    if (blockIdx.x == gridDim.x - 1) b[y][x] = 200.0f;
}
